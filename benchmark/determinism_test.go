package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

func testConns(mix trafficMix) []*clientConn {
	conns := make([]*clientConn, mix.conns)
	for i := range conns {
		conns[i] = &clientConn{idx: i, conns: mix.conns, state: make([]uint32, mix.slots), nextSeq: 1}
	}
	return conns
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for name, spec := range serveSpecs {
		a := buildSchedule(spec.mix, 42, 2000, time.Second, testConns(spec.mix))
		b := buildSchedule(spec.mix, 42, 2000, time.Second, testConns(spec.mix))
		c := buildSchedule(spec.mix, 43, 2000, time.Second, testConns(spec.mix))
		if len(a) < 1500 || len(a) > 2500 {
			t.Errorf("%s: %d arrivals in a second at 2000/s", name, len(a))
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two schedules", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: two seeds gave the same schedule", name)
		}
		var last int64
		seqs := map[[2]uint32]bool{}
		for _, o := range a {
			if o.at < last {
				t.Fatalf("%s: schedule is not in time order", name)
			}
			last = o.at
			if int(o.slot) >= spec.mix.slots || int(o.conn) >= spec.mix.conns {
				t.Fatalf("%s: op %+v outside the key space", name, o)
			}
			if o.kind == opPut {
				k := [2]uint32{uint32(o.conn), o.seq}
				if o.seq == 0 || seqs[k] {
					t.Fatalf("%s: put sequence %d reused on connection %d", name, o.seq, o.conn)
				}
				seqs[k] = true
			}
		}
	}
}

func TestPageBodiesAreAFunctionOfSeedKeyAndSequence(t *testing.T) {
	a, b, other := newPageBodies(7), newPageBodies(7), newPageBodies(8)
	classes := map[bodyClass]int{}
	for key := uint32(0); key < 400; key++ {
		seq := key * 3
		pa, pb := a.Append(nil, key, seq), b.Append(nil, key, seq)
		if len(pa) != pageSize || !bytes.Equal(pa, pb) {
			t.Fatalf("key %d: bodies differ for one seed", key)
		}
		if !a.Matches(pa, key, seq) {
			t.Fatalf("key %d: body does not match itself", key)
		}
		if a.Matches(pa, key, seq+1) && a.Matches(pa, key+1, seq) {
			t.Fatalf("key %d: body matches other puts too", key)
		}
		if bytes.Equal(pa, other.Append(nil, key, seq)) {
			t.Fatalf("key %d: two seeds gave the same body", key)
		}
		class, _ := a.pick(key, seq)
		classes[class]++
		corrupt := append([]byte(nil), pa...)
		corrupt[pageSize/2] ^= 1
		if a.Matches(corrupt, key, seq) {
			t.Fatalf("key %d: a flipped bit went unnoticed", key)
		}
	}
	if classes[classText] < 150 || classes[classDup] < 60 || classes[classRandom] < 60 {
		t.Errorf("class mix over 400 puts: %v, want about 200/100/100", classes)
	}
	// Duplicates are byte-identical across keys (that is what dedups).
	dups := map[string]int{}
	for key := uint32(0); key < 2000; key++ {
		if class, body := a.pick(key, 1); class == classDup {
			dups[string(body[:32])]++
		}
	}
	if len(dups) > hotBodies {
		t.Errorf("%d distinct duplicate bodies, want at most %d", len(dups), hotBodies)
	}
}

func TestSweepSeedsAreAFunctionOfTheSeed(t *testing.T) {
	a, b, c := seedsFor(5, 4), seedsFor(5, 4), seedsFor(6, 4)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Errorf("seedsFor: %v %v %v", a, b, c)
	}
	seen := map[uint64]bool{}
	for _, s := range a {
		if s == 0 || seen[s] {
			t.Errorf("seedsFor(5, 4) = %v: zero or repeated seed", a)
		}
		seen[s] = true
	}
}
