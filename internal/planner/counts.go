package planner

// Counts is a multiset of times kept on the SP tree, without spans: each
// key is a point delta of +1, so the number of keys before t is the prefix
// sum at t's floor. Add and Below are one descent each, O(log N) in the
// distinct keys. The zero value is empty; keys must not precede the
// base given to Reset. Like Planner it holds no lock.
type Counts struct {
	p Planner
}

// Reset empties c and sets its base, keeping the slab's capacity.
func (c *Counts) Reset(base int64) {
	if c.p.active() {
		c.p.demote()
	}
	c.p.base = base
}

// Add inserts n keys at t, or deletes -n keys, which must be present,
// when n is negative.
func (c *Counts) Add(t, n int64) {
	c.p.materialize()
	c.p.edit(t, n, int32(n))
}

// Below returns the number of keys strictly before t.
func (c *Counts) Below(t int64) int64 {
	if !c.p.active() {
		return 0
	}
	_, n := c.p.floor(t - 1)
	return n
}

// Each calls fn with every distinct key and its multiplicity, in time
// order.
func (c *Counts) Each(fn func(t, n int64)) {
	if !c.p.active() {
		return
	}
	for i := c.p.first(); i != noPoint; i = c.p.next(i) {
		if pt := &c.p.pts[i]; pt.delta != 0 {
			fn(pt.at, pt.delta)
		}
	}
}
