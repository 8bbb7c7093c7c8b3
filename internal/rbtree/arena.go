// Package rbtree implements a generic, augmented red-black binary search
// tree stored in a flat slab.
//
// The tree is the foundation of the Planner (see internal/planner): the
// scheduled-point tree keys nodes by time, and the earliest-time tree keys
// nodes by remaining resource quantity and maintains a subtree aggregate
// (the earliest scheduled time in the subtree) through every rotation,
// insertion, and deletion. The aggregate is maintained via a caller-provided
// update hook, so the tree itself stays policy free.
//
// All operations are O(log n). The tree permits duplicate keys; Delete takes
// a node handle (not a key) so the caller always removes exactly the element
// it intends to.
package rbtree

// Arena is an augmented red-black tree whose nodes live in one flat slab
// and link to each other by int32 index instead of pointer: the CLRS
// algorithms with a shared sentinel and a bottom-up augmentation hook, but
// zero per-node heap objects — inserting N items costs one slice of N
// small structs, deleted slots are recycled through a freelist, and Reset
// reuses the slab for the next lifetime.
//
// Node references are int32 indices; None (0) is the shared sentinel and
// doubles as the "no node" value, so `n == None` replaces `n == nil`.
// Handles returned by Insert stay valid until that node is deleted or the
// arena is Reset; a deleted handle may be recycled by a later Insert, so
// callers must not retain handles across Delete.
type Arena[T any] struct {
	nodes  []anode[T]
	less   func(a, b T) bool
	update func(n int32) // optional augmentation hook
	root   int32
	free   int32 // freelist head, linked through left; None = empty
	size   int32
}

// None is the null node reference: index 0, the shared sentinel.
const None int32 = 0

type anode[T any] struct {
	item   T
	left   int32
	right  int32
	parent int32
	red    bool
}

// NewArena returns an empty arena tree ordered by less.
func NewArena[T any](less func(a, b T) bool) *Arena[T] {
	t := &Arena[T]{less: less}
	t.nodes = make([]anode[T], 1, 8) // slot 0 is the sentinel: black, self-referential at index 0
	return t
}

// SetUpdate installs the augmentation hook. After any structural change the
// tree invokes fn bottom-up on every node whose subtree contents changed, so
// fn can recompute subtree aggregates from Item(n), Left(n), and Right(n).
// fn must not modify the tree.
func (t *Arena[T]) SetUpdate(fn func(n int32)) { t.update = fn }

// Len reports the number of items in the tree.
func (t *Arena[T]) Len() int { return int(t.size) }

// Cap reports the slab capacity in nodes (including the sentinel slot).
func (t *Arena[T]) Cap() int { return cap(t.nodes) }

// Reset empties the tree, keeping the allocated slab for reuse.
func (t *Arena[T]) Reset() {
	t.nodes = t.nodes[:1]
	t.nodes[0] = anode[T]{}
	t.root, t.free, t.size = None, None, 0
}

// Item returns the item stored at n. n must be a live node.
func (t *Arena[T]) Item(n int32) T { return t.nodes[n].item }

// SetItem replaces the item stored at n without reordering the tree. The
// caller must guarantee the new item sorts identically; use Refresh
// afterwards if augmentation inputs changed.
func (t *Arena[T]) SetItem(n int32, item T) { t.nodes[n].item = item }

// Root returns the root node, or None if the tree is empty.
func (t *Arena[T]) Root() int32 { return t.root }

// Left returns the left child of n, or None.
func (t *Arena[T]) Left(n int32) int32 { return t.nodes[n].left }

// Right returns the right child of n, or None.
func (t *Arena[T]) Right(n int32) int32 { return t.nodes[n].right }

// Min returns the minimum node, or None if the tree is empty.
func (t *Arena[T]) Min() int32 {
	x := t.root
	if x == None {
		return None
	}
	for t.nodes[x].left != None {
		x = t.nodes[x].left
	}
	return x
}

// Max returns the maximum node, or None if the tree is empty.
func (t *Arena[T]) Max() int32 {
	x := t.root
	if x == None {
		return None
	}
	for t.nodes[x].right != None {
		x = t.nodes[x].right
	}
	return x
}

// Next returns the in-order successor of n, or None if n is the maximum.
func (t *Arena[T]) Next(n int32) int32 {
	if n == None {
		return None
	}
	if r := t.nodes[n].right; r != None {
		x := r
		for t.nodes[x].left != None {
			x = t.nodes[x].left
		}
		return x
	}
	x, p := n, t.nodes[n].parent
	for p != None && x == t.nodes[p].right {
		x, p = p, t.nodes[p].parent
	}
	return p
}

// Prev returns the in-order predecessor of n, or None if n is the minimum.
func (t *Arena[T]) Prev(n int32) int32 {
	if n == None {
		return None
	}
	if l := t.nodes[n].left; l != None {
		x := l
		for t.nodes[x].right != None {
			x = t.nodes[x].right
		}
		return x
	}
	x, p := n, t.nodes[n].parent
	for p != None && x == t.nodes[p].left {
		x, p = p, t.nodes[p].parent
	}
	return p
}

// Search returns a node whose item compares equal to item (neither less),
// or None if no such node exists. With duplicate keys any matching node may
// be returned.
func (t *Arena[T]) Search(item T) int32 {
	x := t.root
	for x != None {
		switch {
		case t.less(item, t.nodes[x].item):
			x = t.nodes[x].left
		case t.less(t.nodes[x].item, item):
			x = t.nodes[x].right
		default:
			return x
		}
	}
	return None
}

// Floor returns the greatest node whose item is <= item, or None.
func (t *Arena[T]) Floor(item T) int32 {
	x, best := t.root, None
	for x != None {
		if t.less(item, t.nodes[x].item) {
			x = t.nodes[x].left
		} else {
			best = x
			x = t.nodes[x].right
		}
	}
	return best
}

// FloorFunc is Floor with the search key expressed as a predicate:
// above(x) must report whether x sorts strictly after the key.
func (t *Arena[T]) FloorFunc(above func(item T) bool) int32 {
	x, best := t.root, None
	for x != None {
		if above(t.nodes[x].item) {
			x = t.nodes[x].left
		} else {
			best = x
			x = t.nodes[x].right
		}
	}
	return best
}

// Ceil returns the smallest node whose item is >= item, or None.
func (t *Arena[T]) Ceil(item T) int32 {
	x, best := t.root, None
	for x != None {
		if t.less(t.nodes[x].item, item) {
			x = t.nodes[x].right
		} else {
			best = x
			x = t.nodes[x].left
		}
	}
	return best
}

// Ascend calls fn on every item in ascending order until fn returns false.
func (t *Arena[T]) Ascend(fn func(item T) bool) {
	for n := t.Min(); n != None; n = t.Next(n) {
		if !fn(t.nodes[n].item) {
			return
		}
	}
}

func (t *Arena[T]) doUpdate(n int32) {
	if t.update != nil && n != None {
		t.update(n)
	}
}

// Refresh recomputes augmentation data from n up to the root. Call it
// after mutating state that the update hook reads for n.
func (t *Arena[T]) Refresh(n int32) {
	if n == None {
		return
	}
	t.updatePath(n)
}

func (t *Arena[T]) updatePath(n int32) {
	if t.update == nil {
		return
	}
	for ; n != None; n = t.nodes[n].parent {
		t.update(n)
	}
}

func (t *Arena[T]) leftRotate(x int32) {
	y := t.nodes[x].right
	yl := t.nodes[y].left
	t.nodes[x].right = yl
	if yl != None {
		t.nodes[yl].parent = x
	}
	xp := t.nodes[x].parent
	t.nodes[y].parent = xp
	switch {
	case xp == None:
		t.root = y
	case x == t.nodes[xp].left:
		t.nodes[xp].left = y
	default:
		t.nodes[xp].right = y
	}
	t.nodes[y].left = x
	t.nodes[x].parent = y
	// x is now y's child: recompute bottom-up.
	t.doUpdate(x)
	t.doUpdate(y)
}

func (t *Arena[T]) rightRotate(x int32) {
	y := t.nodes[x].left
	yr := t.nodes[y].right
	t.nodes[x].left = yr
	if yr != None {
		t.nodes[yr].parent = x
	}
	xp := t.nodes[x].parent
	t.nodes[y].parent = xp
	switch {
	case xp == None:
		t.root = y
	case x == t.nodes[xp].right:
		t.nodes[xp].right = y
	default:
		t.nodes[xp].left = y
	}
	t.nodes[y].right = x
	t.nodes[x].parent = y
	t.doUpdate(x)
	t.doUpdate(y)
}

// alloc takes a slot from the freelist or grows the slab.
func (t *Arena[T]) alloc(item T) int32 {
	if f := t.free; f != None {
		t.free = t.nodes[f].left
		t.nodes[f] = anode[T]{item: item, red: true}
		return f
	}
	t.nodes = append(t.nodes, anode[T]{item: item, red: true})
	return int32(len(t.nodes) - 1)
}

// Insert adds item to the tree and returns its node. Duplicate keys are
// allowed; a duplicate is placed after existing equal keys in iteration
// order.
func (t *Arena[T]) Insert(item T) int32 {
	z := t.alloc(item)
	y, x := None, t.root
	for x != None {
		y = x
		if t.less(item, t.nodes[x].item) {
			x = t.nodes[x].left
		} else {
			x = t.nodes[x].right
		}
	}
	t.nodes[z].parent = y
	switch {
	case y == None:
		t.root = z
	case t.less(item, t.nodes[y].item):
		t.nodes[y].left = z
	default:
		t.nodes[y].right = z
	}
	t.size++
	t.updatePath(z)
	t.insertFixup(z)
	return z
}

func (t *Arena[T]) insertFixup(z int32) {
	for t.nodes[t.nodes[z].parent].red {
		zp := t.nodes[z].parent
		zpp := t.nodes[zp].parent
		if zp == t.nodes[zpp].left {
			y := t.nodes[zpp].right
			if t.nodes[y].red {
				t.nodes[zp].red = false
				t.nodes[y].red = false
				t.nodes[zpp].red = true
				z = zpp
			} else {
				if z == t.nodes[zp].right {
					z = zp
					t.leftRotate(z)
					zp = t.nodes[z].parent
					zpp = t.nodes[zp].parent
				}
				t.nodes[zp].red = false
				t.nodes[zpp].red = true
				t.rightRotate(zpp)
			}
		} else {
			y := t.nodes[zpp].left
			if t.nodes[y].red {
				t.nodes[zp].red = false
				t.nodes[y].red = false
				t.nodes[zpp].red = true
				z = zpp
			} else {
				if z == t.nodes[zp].left {
					z = zp
					t.rightRotate(z)
					zp = t.nodes[z].parent
					zpp = t.nodes[zp].parent
				}
				t.nodes[zp].red = false
				t.nodes[zpp].red = true
				t.leftRotate(zpp)
			}
		}
	}
	t.nodes[t.root].red = false
}

func (t *Arena[T]) transplant(u, v int32) {
	up := t.nodes[u].parent
	switch {
	case up == None:
		t.root = v
	case u == t.nodes[up].left:
		t.nodes[up].left = v
	default:
		t.nodes[up].right = v
	}
	t.nodes[v].parent = up
}

// Delete removes node z from the tree and recycles its slot. z must be a
// live node of this tree; the handle is invalid afterwards.
func (t *Arena[T]) Delete(z int32) {
	if z == None {
		return
	}
	y := z
	yWasRed := t.nodes[y].red
	var x int32
	switch {
	case t.nodes[z].left == None:
		x = t.nodes[z].right
		t.transplant(z, x)
	case t.nodes[z].right == None:
		x = t.nodes[z].left
		t.transplant(z, x)
	default:
		y = t.nodes[z].right
		for t.nodes[y].left != None {
			y = t.nodes[y].left
		}
		yWasRed = t.nodes[y].red
		x = t.nodes[y].right
		if t.nodes[y].parent == z {
			t.nodes[x].parent = y // sentinel parent is meaningful for fixup
		} else {
			t.transplant(y, x)
			zr := t.nodes[z].right
			t.nodes[y].right = zr
			t.nodes[zr].parent = y
		}
		t.transplant(z, y)
		zl := t.nodes[z].left
		t.nodes[y].left = zl
		t.nodes[zl].parent = y
		t.nodes[y].red = t.nodes[z].red
	}
	t.size--
	// Recompute aggregates along the spliced path before rebalancing;
	// fixup rotations repair their own nodes locally.
	t.updatePath(t.nodes[x].parent)
	if !yWasRed {
		t.deleteFixup(x)
	}
	// Recycle z's slot onto the freelist (linked through left).
	var zero T
	t.nodes[z] = anode[T]{item: zero, left: t.free}
	t.free = z
	// Restore the sentinel's self-references: transplant and the
	// y.parent==z case can point it at interior nodes temporarily.
	t.nodes[0].left, t.nodes[0].right, t.nodes[0].parent = None, None, None
}

func (t *Arena[T]) deleteFixup(x int32) {
	for x != t.root && !t.nodes[x].red {
		xp := t.nodes[x].parent
		if x == t.nodes[xp].left {
			w := t.nodes[xp].right
			if t.nodes[w].red {
				t.nodes[w].red = false
				t.nodes[xp].red = true
				t.leftRotate(xp)
				xp = t.nodes[x].parent
				w = t.nodes[xp].right
			}
			if !t.nodes[t.nodes[w].left].red && !t.nodes[t.nodes[w].right].red {
				t.nodes[w].red = true
				x = xp
			} else {
				if !t.nodes[t.nodes[w].right].red {
					t.nodes[t.nodes[w].left].red = false
					t.nodes[w].red = true
					t.rightRotate(w)
					w = t.nodes[xp].right
				}
				t.nodes[w].red = t.nodes[xp].red
				t.nodes[xp].red = false
				t.nodes[t.nodes[w].right].red = false
				t.leftRotate(xp)
				x = t.root
			}
		} else {
			w := t.nodes[xp].left
			if t.nodes[w].red {
				t.nodes[w].red = false
				t.nodes[xp].red = true
				t.rightRotate(xp)
				xp = t.nodes[x].parent
				w = t.nodes[xp].left
			}
			if !t.nodes[t.nodes[w].right].red && !t.nodes[t.nodes[w].left].red {
				t.nodes[w].red = true
				x = xp
			} else {
				if !t.nodes[t.nodes[w].left].red {
					t.nodes[t.nodes[w].right].red = false
					t.nodes[w].red = true
					t.leftRotate(w)
					w = t.nodes[xp].left
				}
				t.nodes[w].red = t.nodes[xp].red
				t.nodes[xp].red = false
				t.nodes[t.nodes[w].left].red = false
				t.rightRotate(xp)
				x = t.root
			}
		}
	}
	t.nodes[x].red = false
}
