package planner

// The scheduled-point (SP) tree is intrusive: every point in the planner's
// slab is also its own red-black tree node keyed by time, linked to its
// children and parent by slab index. Slot 0 is the shared sentinel (CLRS's
// T.nil): black, zero-valued, and the "no point" link. A free slot links
// the freelist through left. So an active calendar is one slice of
// 64-byte points and nothing else.

// noPoint is the sentinel slot: the null tree link and the "no point"
// result of the searches. Its sum stays 0, so pts[pt.left].sum is the
// left-subtree sum whether or not pt has a left child.
const noPoint int32 = 0

// schedPoint is one scheduled time point: the boundary of at least one span
// (or the planner's base point), and its own node of the SP tree.
type schedPoint struct {
	at int64
	// delta is the units scheduled throughout [at, next point) minus
	// those scheduled just before at: the scheduled amount here is the
	// sum of the deltas of every point up to and including this one.
	delta int64

	// Aggregates over the in-order deltas of the subtree rooted here:
	// their sum and the maximum and minimum non-empty prefix sums, all
	// recomputed bottom-up by spUpdate.
	sum    int64
	maxPre int64
	minPre int64

	refCount int32 // spans starting or ending here; base point is pinned

	// Tree links (slab indices, noPoint for none); left is the freelist
	// link while the slot is free.
	left, right, parent int32
	red                 bool
}

// aggregates computes i's subtree aggregates from its delta and its
// children's aggregates.
func (p *Planner) aggregates(i int32) (sum, maxPre, minPre int64) {
	pt := &p.pts[i]
	sum = p.pts[pt.left].sum + pt.delta
	maxPre, minPre = sum, sum
	if pt.left != noPoint {
		l := &p.pts[pt.left]
		maxPre = max(l.maxPre, sum)
		minPre = min(l.minPre, sum)
	}
	if pt.right != noPoint {
		r := &p.pts[pt.right]
		maxPre = max(maxPre, sum+r.maxPre)
		minPre = min(minPre, sum+r.minPre)
		sum += r.sum
	}
	return sum, maxPre, minPre
}

// spUpdate stores i's subtree aggregates.
func (p *Planner) spUpdate(i int32) {
	pt := &p.pts[i]
	pt.sum, pt.maxPre, pt.minPre = p.aggregates(i)
}

// refresh recomputes the aggregates from i up to the root.
func (p *Planner) refresh(i int32) {
	for ; i != noPoint; i = p.pts[i].parent {
		p.spUpdate(i)
	}
}

// first returns the earliest point, or noPoint if the tree is empty.
func (p *Planner) first() int32 {
	i := p.root
	if i == noPoint {
		return noPoint
	}
	for p.pts[i].left != noPoint {
		i = p.pts[i].left
	}
	return i
}

// next returns the point after i in time order, or noPoint.
func (p *Planner) next(i int32) int32 {
	if r := p.pts[i].right; r != noPoint {
		for p.pts[r].left != noPoint {
			r = p.pts[r].left
		}
		return r
	}
	par := p.pts[i].parent
	for par != noPoint && i == p.pts[par].right {
		i, par = par, p.pts[par].parent
	}
	return par
}

// allocPoint takes a slot from the freelist or grows the slab and returns
// it as a red, unlinked point at time at.
func (p *Planner) allocPoint(at int64) int32 {
	if f := p.free; f != noPoint {
		p.free = p.pts[f].left
		p.pts[f] = schedPoint{at: at, red: true}
		return f
	}
	p.pts = append(p.pts, schedPoint{at: at, red: true})
	return int32(len(p.pts) - 1)
}

// edit adds units to the amount scheduled from time t onward and ref to the
// boundary count of the point at t: one descent, then one delta and one
// root-ward refresh, however many points lie beyond t. A missing point is
// created (it inherits its predecessor's scheduled amount, so only its own
// delta is new); a point no span bounds any more has delta zero again and
// is dropped (the base point is pinned).
func (p *Planner) edit(t, units int64, ref int32) {
	parent, i := noPoint, p.root
	for i != noPoint {
		pt := &p.pts[i]
		if t == pt.at {
			pt.delta += units
			pt.refCount += ref
			if pt.refCount == 0 && pt.at != p.base {
				p.deletePoint(i)
			} else {
				p.refresh(i)
			}
			return
		}
		parent = i
		if t < pt.at {
			i = pt.left
		} else {
			i = pt.right
		}
	}
	z := p.allocPoint(t)
	pt := &p.pts[z]
	pt.delta, pt.refCount, pt.parent = units, ref, parent
	switch {
	case parent == noPoint:
		p.root = z
	case t < p.pts[parent].at:
		p.pts[parent].left = z
	default:
		p.pts[parent].right = z
	}
	p.n++
	p.refresh(z)
	p.insertFixup(z)
}

func (p *Planner) rotateLeft(x int32) {
	y := p.pts[x].right
	yl := p.pts[y].left
	p.pts[x].right = yl
	if yl != noPoint {
		p.pts[yl].parent = x
	}
	xp := p.pts[x].parent
	p.pts[y].parent = xp
	switch {
	case xp == noPoint:
		p.root = y
	case x == p.pts[xp].left:
		p.pts[xp].left = y
	default:
		p.pts[xp].right = y
	}
	p.pts[y].left = x
	p.pts[x].parent = y
	// x is now y's child: recompute bottom-up.
	p.spUpdate(x)
	p.spUpdate(y)
}

func (p *Planner) rotateRight(x int32) {
	y := p.pts[x].left
	yr := p.pts[y].right
	p.pts[x].left = yr
	if yr != noPoint {
		p.pts[yr].parent = x
	}
	xp := p.pts[x].parent
	p.pts[y].parent = xp
	switch {
	case xp == noPoint:
		p.root = y
	case x == p.pts[xp].right:
		p.pts[xp].right = y
	default:
		p.pts[xp].left = y
	}
	p.pts[y].right = x
	p.pts[x].parent = y
	p.spUpdate(x)
	p.spUpdate(y)
}

func (p *Planner) insertFixup(z int32) {
	pts := p.pts
	for pts[pts[z].parent].red {
		zp := pts[z].parent
		zpp := pts[zp].parent
		if zp == pts[zpp].left {
			y := pts[zpp].right
			if pts[y].red {
				pts[zp].red, pts[y].red, pts[zpp].red = false, false, true
				z = zpp
				continue
			}
			if z == pts[zp].right {
				z = zp
				p.rotateLeft(z)
				zp = pts[z].parent
				zpp = pts[zp].parent
			}
			pts[zp].red, pts[zpp].red = false, true
			p.rotateRight(zpp)
		} else {
			y := pts[zpp].left
			if pts[y].red {
				pts[zp].red, pts[y].red, pts[zpp].red = false, false, true
				z = zpp
				continue
			}
			if z == pts[zp].left {
				z = zp
				p.rotateRight(z)
				zp = pts[z].parent
				zpp = pts[zp].parent
			}
			pts[zp].red, pts[zpp].red = false, true
			p.rotateLeft(zpp)
		}
	}
	pts[p.root].red = false
}

// transplant puts v in u's place under u's parent.
func (p *Planner) transplant(u, v int32) {
	up := p.pts[u].parent
	switch {
	case up == noPoint:
		p.root = v
	case u == p.pts[up].left:
		p.pts[up].left = v
	default:
		p.pts[up].right = v
	}
	p.pts[v].parent = up
}

// deletePoint unlinks point z from the tree and recycles its slot. A point
// with two children is replaced by its successor's node, so every other
// slot keeps its point.
func (p *Planner) deletePoint(z int32) {
	pts := p.pts
	y, yWasRed := z, pts[z].red
	var x int32
	switch {
	case pts[z].left == noPoint:
		x = pts[z].right
		p.transplant(z, x)
	case pts[z].right == noPoint:
		x = pts[z].left
		p.transplant(z, x)
	default:
		y = pts[z].right
		for pts[y].left != noPoint {
			y = pts[y].left
		}
		yWasRed = pts[y].red
		x = pts[y].right
		if pts[y].parent == z {
			pts[x].parent = y // the sentinel's parent matters to the fixup
		} else {
			p.transplant(y, x)
			pts[y].right = pts[z].right
			pts[pts[y].right].parent = y
		}
		p.transplant(z, y)
		pts[y].left = pts[z].left
		pts[pts[y].left].parent = y
		pts[y].red = pts[z].red
	}
	p.n--
	// Recompute the aggregates along the spliced path before
	// rebalancing; the fixup's rotations repair their own nodes.
	p.refresh(pts[x].parent)
	if !yWasRed {
		p.deleteFixup(x)
	}
	pts[z] = schedPoint{left: p.free}
	p.free = z
	// Transplant may have pointed the sentinel at a live node.
	pts[noPoint] = schedPoint{}
}

func (p *Planner) deleteFixup(x int32) {
	pts := p.pts
	for x != p.root && !pts[x].red {
		xp := pts[x].parent
		if x == pts[xp].left {
			w := pts[xp].right
			if pts[w].red {
				pts[w].red, pts[xp].red = false, true
				p.rotateLeft(xp)
				w = pts[xp].right
			}
			if !pts[pts[w].left].red && !pts[pts[w].right].red {
				pts[w].red = true
				x = xp
				continue
			}
			if !pts[pts[w].right].red {
				pts[pts[w].left].red, pts[w].red = false, true
				p.rotateRight(w)
				w = pts[xp].right
			}
			pts[w].red, pts[xp].red = pts[xp].red, false
			pts[pts[w].right].red = false
			p.rotateLeft(xp)
		} else {
			w := pts[xp].left
			if pts[w].red {
				pts[w].red, pts[xp].red = false, true
				p.rotateRight(xp)
				w = pts[xp].left
			}
			if !pts[pts[w].right].red && !pts[pts[w].left].red {
				pts[w].red = true
				x = xp
				continue
			}
			if !pts[pts[w].left].red {
				pts[pts[w].right].red, pts[w].red = false, true
				p.rotateLeft(w)
				w = pts[xp].left
			}
			pts[w].red, pts[xp].red = pts[xp].red, false
			pts[pts[w].left].red = false
			p.rotateRight(xp)
		}
		x = p.root
	}
	pts[x].red = false
}
