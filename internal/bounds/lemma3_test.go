package bounds

import (
	"fmt"
	"math"

	"repro/internal/model"
)

// Exchange applies the Lemma 3 transformation to a ranked schedule:
// given non-root nodes u and v with d(u) < d(v) and
// osend(u) = e * osend(v) for an integer e >= 2, on an instance whose
// receive-send ratio is a constant integer C, it produces a schedule in
// which v takes u's earlier position without increasing any other node's
// delivery time or the delivery completion time DT.
//
// Construction (following the proof): u and v swap tree positions; each
// former child of u at rank k re-attaches under v at rank (C+k)*e - C
// (preserving its delivery time exactly); each former child of v whose
// rank has the form (C+i)*e - C moves under u at rank i (again preserving
// its delivery time); v's remaining children stay with v at their old
// ranks, which strictly decreases their delivery times. The special case
// where v is a child of u re-attaches u under v at v's scaled rank.
//
// The transformation mutates rk in place.
func Exchange(rk *Ranked, u, v model.NodeID) error {
	if u <= 0 || v <= 0 || int(u) >= len(rk.Parent) || int(v) >= len(rk.Parent) {
		return fmt.Errorf("bounds: Exchange(%d, %d): nodes must be non-root", u, v)
	}
	c, err := ConstantRatio(rk.Set)
	if err != nil {
		return fmt.Errorf("bounds: Exchange requires a constant-ratio instance: %w", err)
	}
	su, sv := rk.Set.Nodes[u].Send, rk.Set.Nodes[v].Send
	if sv <= 0 || su%sv != 0 || su/sv < 2 {
		return fmt.Errorf("bounds: Exchange(%d, %d): osend(u)=%d not an integer multiple >= 2 of osend(v)=%d", u, v, su, sv)
	}
	e := su / sv
	tm := rk.Times()
	if tm.Delivery[u] >= tm.Delivery[v] {
		return fmt.Errorf("bounds: Exchange(%d, %d): requires d(u)=%d < d(v)=%d", u, v, tm.Delivery[u], tm.Delivery[v])
	}
	if isAncestor(rk, v, u) {
		return fmt.Errorf("bounds: Exchange(%d, %d): v is an ancestor of u, impossible with d(u) < d(v)", u, v)
	}
	uKids := rk.ChildrenOf(u)
	vKids := rk.ChildrenOf(v)
	pu, ru := rk.Parent[u], rk.Rank[u]
	pv, rv := rk.Parent[v], rk.Rank[v]
	// Swap positions.
	rk.Parent[v], rk.Rank[v] = pu, ru
	if pv == u {
		// v was u's child: u re-attaches under v at v's scaled slot,
		// handled below when v's old slot is scaled with u's other
		// children. Mark u's position now; it is overwritten in the loop.
		rk.Parent[u], rk.Rank[u] = v, rv
	} else {
		rk.Parent[u], rk.Rank[u] = pv, rv
	}
	// u's former children (v possibly among them) re-attach under v at
	// scaled ranks, preserving their delivery times.
	for _, k := range uKids {
		oldRank := rk.Rank[k]
		target := k
		if k == v {
			// v itself moved to u's position; the occupant of this slot
			// is now u (the special case in the proof).
			target = u
			oldRank = rv
		}
		rk.Parent[target] = v
		rk.Rank[target] = (c+oldRank)*e - c
	}
	// v's former children: those at ranks of the form (C+i)*e - C move to
	// u at rank i; the rest stay with v at unchanged ranks (their parent
	// pointer already names v).
	for _, k := range vKids {
		if k == u {
			continue // cannot happen (u would be below v); guarded above
		}
		rkOld := rk.Rank[k]
		if (rkOld+c)%e == 0 {
			i := (rkOld+c)/e - c
			if i >= 1 {
				rk.Parent[k] = u
				rk.Rank[k] = i
			}
		}
		// else: remains a child of v at the same rank.
	}
	return nil
}

func isAncestor(rk *Ranked, anc, v model.NodeID) bool {
	for w := v; w != 0 && w != -1; w = rk.Parent[w] {
		if rk.Parent[w] == anc {
			return true
		}
	}
	return false
}

// Layerize repeatedly applies Exchange (and type-preserving relabelings)
// until the schedule is layered, never increasing the delivery completion
// time. It requires a constant-integer-ratio instance whose distinct
// sending overheads each divide the larger ones with quotient >= 2 --
// exactly what RoundUp produces. Returns the number of exchanges applied.
func Layerize(rk *Ranked, maxRounds int) (int, error) {
	if _, err := ConstantRatio(rk.Set); err != nil {
		return 0, err
	}
	exchanges := 0
	for round := 0; round < maxRounds; round++ {
		if rk.IsLayered() {
			return exchanges, nil
		}
		tm := rk.Times()
		ids := rk.Set.SortedDestinations()
		changed := false
		// Fix destinations in non-decreasing overhead order: p_i must
		// have a delivery time no later than every slower remaining node.
		for i, p := range ids {
			// Find the minimum-delivery node among ids[i:].
			w := p
			for _, q := range ids[i:] {
				if tm.Delivery[q] < tm.Delivery[w] || (tm.Delivery[q] == tm.Delivery[w] && rk.Set.Nodes[q].Send > rk.Set.Nodes[w].Send) {
					w = q
				}
			}
			if w == p || tm.Delivery[w] >= tm.Delivery[p] {
				continue
			}
			if rk.Set.Nodes[w].Send == rk.Set.Nodes[p].Send {
				// Same type: swap positions and subtrees wholesale; all
				// delivery times are preserved because the types match.
				swapSameType(rk, w, p)
				exchanges++
				changed = true
				break
			}
			if err := Exchange(rk, w, p); err != nil {
				return exchanges, fmt.Errorf("bounds: Layerize: %w", err)
			}
			exchanges++
			changed = true
			break // recompute times from scratch after each exchange
		}
		if !changed && !rk.IsLayered() {
			return exchanges, fmt.Errorf("bounds: Layerize stuck on a non-layered schedule")
		}
	}
	if !rk.IsLayered() {
		return exchanges, fmt.Errorf("bounds: Layerize did not converge in %d rounds", maxRounds)
	}
	return exchanges, nil
}

// swapSameType exchanges the tree positions of two nodes with identical
// overheads; subtrees stay in place (only the two labels move), so every
// delivery time is unchanged as a multiset and unchanged point-wise for
// all other nodes.
func swapSameType(rk *Ranked, a, b model.NodeID) {
	pa, ra := rk.Parent[a], rk.Rank[a]
	pb, rb := rk.Parent[b], rk.Rank[b]
	// Re-parent children first (children of a become children of b and
	// vice versa, keeping ranks).
	kidsA := rk.ChildrenOf(a)
	kidsB := rk.ChildrenOf(b)
	for _, k := range kidsA {
		if k != b {
			rk.Parent[k] = b
		}
	}
	for _, k := range kidsB {
		if k != a {
			rk.Parent[k] = a
		}
	}
	rk.Parent[a], rk.Rank[a] = pb, rb
	rk.Parent[b], rk.Rank[b] = pa, ra
	if pb == a {
		rk.Parent[a] = b
	}
	if pa == b {
		rk.Parent[b] = a
	}
}

// RoundUp builds the rounded instance S' from the Theorem 1 proof: each
// node's sending overhead becomes the smallest power of two at least its
// original value, and its receiving overhead becomes ceil(amax) times the
// new sending overhead. The returned set node-wise dominates the input
// (osend' >= osend, orecv' >= orecv) and has a constant integer
// receive-send ratio, the precondition of Lemma 3.
func RoundUp(set *model.MulticastSet) *model.MulticastSet {
	rs := set.Ratios()
	c := int64(math.Ceil(rs.AlphaMax))
	if c < 1 {
		c = 1
	}
	out := set.Clone()
	for i := range out.Nodes {
		s := nextPow2(out.Nodes[i].Send)
		out.Nodes[i].Send = s
		out.Nodes[i].Recv = c * s
	}
	return out
}

// ConstantRatio returns the common integer receive-send ratio of the set,
// or an error if the ratio is not a uniform integer. Lemma 3 requires
// orecv(p) = C * osend(p) for every node.
func ConstantRatio(set *model.MulticastSet) (int64, error) {
	if len(set.Nodes) == 0 {
		return 0, fmt.Errorf("bounds: empty set")
	}
	first := set.Nodes[0]
	if first.Recv%first.Send != 0 {
		return 0, fmt.Errorf("bounds: node 0 ratio %d/%d not integer", first.Recv, first.Send)
	}
	c := first.Recv / first.Send
	for i, n := range set.Nodes {
		if n.Recv != c*n.Send {
			return 0, fmt.Errorf("bounds: node %d breaks the constant ratio %d (send=%d recv=%d)", i, c, n.Send, n.Recv)
		}
	}
	return c, nil
}

func nextPow2(v int64) int64 {
	p := int64(1)
	for p < v {
		p <<= 1
	}
	return p
}
