package actor

import (
	"diffusionlb/internal/core"
	"diffusionlb/internal/spectral"
)

// zMsg carries the sender's normalized boundary loads for one round:
// z[k] is the normalized load of the sender's k-th boundary node toward
// the receiving actor (link.sendNodes order). The slice aliases the
// sender's reusable send buffer; the receiver copies it into its version
// ring within the same round, and the driver joins all actors between
// rounds — the happens-before edge that makes the buffer reuse safe.
type zMsg struct {
	round int
	z     []float64
}

// fluxMsg carries the integer flows the sender rounded onto the link's
// cut arcs this round (link.cutArcs order) plus their sum, so the
// receiver can maintain the link's conservation accounting without a
// second pass.
type fluxMsg struct {
	round int
	flux  []int64
	total int64
}

// link is one directed communication edge between two actors that share
// boundary arcs. Each round it carries exactly one zMsg (normalized
// boundary loads, sent before flows are computed) and one fluxMsg (the
// rounded flows on the cut arcs); both channels have capacity 1 and are
// drained in the round they are filled.
//
// Field ownership is split by role so the two endpoint actors never race:
// the source actor writes the send buffers and sentTotal, the destination
// actor writes the version rings, applied and appliedTotal.
type link struct {
	src, dst int

	// Static topology, fixed at construction.
	sendNodes []int32 // sorted unique tails of cutArcs (src's boundary nodes toward dst)
	cutArcs   []int32 // src-owned arcs with head in dst, in CSR arc order
	recvArcs  []int32 // mate[cutArcs[k]]: the dst-owned arc credited by flux entry k
	slot      []int32 // slot[k]: index of cutArcs[k]'s tail in sendNodes

	zCh chan zMsg
	fCh chan fluxMsg

	// Sender-owned reusable message buffers.
	zBuf []float64
	fBuf []int64

	// Receiver-owned version rings: row v%(stale+1) holds version v. With
	// staleness bound S, round t reads z version t−lag ≥ t−S and applies
	// flux versions through t−lag, so a row is never overwritten (at
	// version v+S+1) before its content was consumed.
	zRing    [][]float64
	fRing    [][]int64
	fRingSum []int64

	// applied is the newest flux version credited to the receiver's flows
	// (receiver-owned; −1 before the first round).
	applied int
	// Conservation accounting: sentTotal accumulates every token handed to
	// the link (sender-owned), appliedTotal every token credited from it
	// (receiver-owned). Their difference is the link's in-flight load —
	// zero at every quiescence point in barrier mode.
	sentTotal    int64
	appliedTotal int64
}

// ctlOp enumerates the control-plane message kinds the driver broadcasts
// to the actors between rounds.
type ctlOp uint8

const (
	ctlInject ctlOp = iota + 1
	ctlRetarget
	ctlSetBeta
	ctlSetKind
)

// ctlMsg is one control-plane broadcast: a workload injection, a speed
// event (operator retarget), a β re-optimization or a scheme switch. The
// driver appends it to every actor's mailbox and the actors drain their
// mailboxes concurrently — the actor-runtime form of the shared-memory
// engines' direct mutation, with the same between-rounds semantics.
type ctlMsg struct {
	op     ctlOp
	deltas []int64 // ctlInject: shared read-only; each actor applies its own node range
	newOp  *spectral.Operator
	beta   float64
	kind   core.Kind
}

// actorState is the private state of one actor: the node and arc ranges it
// owns, its link endpoints, its control mailbox and its own view of the
// control-plane parameters (operator, scheme, β) — actors never read
// another actor's parameters, only messages. Its rounding scratch and
// reduction slots are its shard's in the runtime's core.DiscreteState.
type actorState struct {
	r      *Runtime
	id     int
	lo, hi int // owned node range
	arcLo  int // first owned arc

	// Control-plane parameters, installed by drainCtl between rounds and
	// handed to the shared kernels by core.DiscreteState.BeginRound. They
	// start as copies of the runtime's state and stay in sync with it
	// because every mutation goes through a Runtime method that both
	// updates the state and broadcasts.
	op         *spectral.Operator
	kind       core.Kind
	beta       float64
	flowsValid bool

	ctl []ctlMsg

	in  []*link // links where this actor receives (dst == id), src ascending
	out []*link // links where this actor sends (src == id), dst ascending

	lag   []int     // per in-link staleness lag of the current round
	haloZ []float64 // per owned arc: the head's z when the head is remote
}

// buildTopology populates r.act and r.links from the layout: one actor per
// shard, one directed link per ordered shard pair that shares cut arcs.
// Links are created in (src, dst) ascending order and per-actor link lists
// inherit that order, so the construction — and every reduction that walks
// it — is deterministic.
func buildTopology(r *Runtime) {
	lay := r.ShardLayout()
	k := lay.Shards()
	g := lay.Graph()
	span := r.stale + 1
	r.act = make([]actorState, k)
	for s := 0; s < k; s++ {
		lo, hi := lay.NodeRange(s)
		alo, ahi := lay.ArcRange(s)
		r.act[s] = actorState{
			r: r, id: s, lo: lo, hi: hi, arcLo: alo,
			op: r.Operator(), kind: r.Kind(), beta: r.Beta(),
			haloZ: make([]float64, ahi-alo),
		}
		r.SetHalo(s, r.act[s].haloZ)
	}
	offsets, arcs, mate := g.Offsets(), g.Arcs(), g.MateIndex()
	// Per source shard, a first scan counts the cut arcs and boundary nodes
	// toward each destination, so every link's lists are allocated once at
	// their final size; a second scan fills them.
	nCut, nSend, lastTail := make([]int, k), make([]int, k), make([]int, k)
	to := make([]*link, k) // the source shard's link to each destination
	for s := 0; s < k; s++ {
		lo, hi := lay.NodeRange(s)
		clear(nCut)
		clear(nSend)
		for d := range lastTail {
			lastTail[d] = -1
		}
		for i := lo; i < hi; i++ {
			for _, j := range arcs[offsets[i]:offsets[i+1]] {
				if int(j) >= lo && int(j) < hi {
					continue
				}
				d := lay.ShardOf(int(j))
				nCut[d]++
				if lastTail[d] != i {
					lastTail[d] = i
					nSend[d]++
				}
			}
		}
		for d := 0; d < k; d++ {
			to[d] = nil
			cut, send := nCut[d], nSend[d]
			if cut == 0 {
				continue
			}
			l := &link{
				src: s, dst: d,
				sendNodes: make([]int32, 0, send),
				cutArcs:   make([]int32, 0, cut),
				recvArcs:  make([]int32, 0, cut),
				slot:      make([]int32, 0, cut),
				zCh:       make(chan zMsg, 1),
				fCh:       make(chan fluxMsg, 1),
				zBuf:      make([]float64, send),
				fBuf:      make([]int64, cut),
				fRing:     make([][]int64, span),
				fRingSum:  make([]int64, span),
				zRing:     make([][]float64, span),
				applied:   -1,
			}
			for v := 0; v < span; v++ {
				l.zRing[v] = make([]float64, send)
				l.fRing[v] = make([]int64, cut)
			}
			to[d] = l
			r.links = append(r.links, l)
		}
		// Tails arrive in non-decreasing order (the scan walks nodes in
		// order and CSR groups a node's arcs), so a tail is a new boundary
		// node exactly when it differs from the last one recorded.
		for i := lo; i < hi; i++ {
			for a := offsets[i]; a < offsets[i+1]; a++ {
				j := int(arcs[a])
				if j >= lo && j < hi {
					continue
				}
				l := to[lay.ShardOf(j)]
				if m := len(l.sendNodes); m == 0 || l.sendNodes[m-1] != int32(i) {
					l.sendNodes = append(l.sendNodes, int32(i))
				}
				l.cutArcs = append(l.cutArcs, a)
				l.recvArcs = append(l.recvArcs, mate[a])
				l.slot = append(l.slot, int32(len(l.sendNodes)-1))
			}
		}
	}
	for _, l := range r.links {
		r.act[l.src].out = append(r.act[l.src].out, l)
		r.act[l.dst].in = append(r.act[l.dst].in, l)
	}
	for s := range r.act {
		r.act[s].lag = make([]int, len(r.act[s].in))
	}
}
