package planner

import (
	"math/rand"
	"slices"
	"testing"
)

// TestCountsAgainstReference drives Counts and a sorted slice through the
// same random adds and removes: Below and Each must agree after every
// step, FirstStart must name a live planner's earliest span start, and
// the red-black tree must keep its shape, and Reset must empty the
// calendar.
func TestCountsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var c Counts
	for round := 0; round < 3; round++ {
		base := int64(round * 10)
		c.Reset(base)
		var ref []int64
		for op := 0; op < 2000; op++ {
			if len(ref) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(ref))
				c.Add(ref[i], -1)
				ref = slices.Delete(ref, i, i+1)
			} else {
				k := base + rng.Int63n(200)
				c.Add(k, 1)
				i, _ := slices.BinarySearch(ref, k)
				ref = slices.Insert(ref, i, k)
			}
			q := base + rng.Int63n(220) - 5
			want, _ := slices.BinarySearch(ref, q)
			for want > 0 && ref[want-1] >= q {
				want--
			}
			if got := c.Below(q); got != int64(want) {
				t.Fatalf("round %d op %d: Below(%d) = %d, want %d", round, op, q, got, want)
			}
		}
		var each []int64
		c.Each(func(k, n int64) {
			for ; n > 0; n-- {
				each = append(each, k)
			}
		})
		if !slices.Equal(each, ref) {
			t.Fatalf("round %d: Each %v, want %v", round, each, ref)
		}
		if err := c.p.checkTree(); err != nil {
			t.Fatal(err)
		}
	}
	c.Reset(0)
	if c.Below(1<<40) != 0 {
		t.Fatal("Reset left keys behind")
	}
}

func TestFirstStart(t *testing.T) {
	p, err := New(0, 1000, 4, "core")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.FirstStart(); ok {
		t.Fatal("an empty planner reports a start")
	}
	a, _ := p.AddSpan(0, 10, 1)
	b, _ := p.AddSpan(5, 100, 2)
	for _, step := range []struct {
		remove int64
		want   int64
	}{{-1, 0}, {a, 5}} {
		if step.remove >= 0 {
			if err := p.RemoveSpan(step.remove); err != nil {
				t.Fatal(err)
			}
		}
		if got, ok := p.FirstStart(); !ok || got != step.want {
			t.Fatalf("FirstStart = %d, %v; want %d", got, ok, step.want)
		}
	}
	if err := p.RemoveSpan(b); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.FirstStart(); ok {
		t.Fatal("a drained planner reports a start")
	}
}
