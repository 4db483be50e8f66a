package main

import (
	"reflect"
	"testing"

	"repro/internal/censusd"
)

func TestPlanIsSeededAndBalanced(t *testing.T) {
	d := &daemonSpec{Clients: 2, RepeatEvery: 3, Shapes: []censusd.Request{
		{Protocol: "tas2"}, {Protocol: "fa2"}, {Protocol: "rw3"}, {Protocol: "queue2"},
	}}
	run := func(seed int64) [][]censusd.Request {
		var out [][]censusd.Request
		for _, p := range newPlans(d, seed) {
			var seq []censusd.Request
			repeats, fresh := 0, map[string]int{}
			ids := map[string]bool{}
			for i := 0; i < 24; i++ {
				r, repeat := p.next()
				n := r
				if err := n.Normalize(); err != nil {
					t.Fatal(err)
				}
				if repeat {
					repeats++
					if !ids[n.ID()] {
						t.Fatalf("client %d op %d repeats an identity it never submitted", p.client, i)
					}
				} else {
					if ids[n.ID()] {
						t.Fatalf("client %d op %d: fresh submission reuses an identity", p.client, i)
					}
					ids[n.ID()] = true
					fresh[r.Protocol]++
				}
				seq = append(seq, r)
			}
			if repeats != 8 {
				t.Errorf("client %d: %d repeats in 24 submissions, want 8", p.client, repeats)
			}
			for _, s := range d.Shapes {
				if fresh[s.Protocol] != 4 {
					t.Errorf("client %d: shape %s dealt %d times in 16 fresh jobs, want 4", p.client, s.Protocol, fresh[s.Protocol])
				}
			}
			out = append(out, seq)
		}
		return out
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different submissions")
	}
	if reflect.DeepEqual(a, run(8)) {
		t.Error("different seeds gave the same submissions")
	}
	// Identities never collide across clients either.
	seen := map[string]int{}
	for c, seq := range a {
		for _, r := range seq {
			n := r
			_ = n.Normalize()
			if prev, ok := seen[n.ID()]; ok && prev != c {
				t.Fatalf("clients %d and %d share identity %s", prev, c, n.Identity())
			}
			seen[n.ID()] = c
		}
	}
}
