package experiments

import (
	"reflect"
	"testing"

	"smartmem/internal/durable"
	"smartmem/internal/guest"
	"smartmem/internal/metrics"
	"smartmem/internal/tmem"
)

// blockCase is one stats block type: a constructor and metrics.Add bound
// to the type, so one table can drive the generic Add.
type blockCase struct {
	name string
	new  func() metrics.Block
	add  func(dst, src metrics.Block)
}

func blockOf[T any, P interface {
	*T
	metrics.Block
}]() blockCase {
	return blockCase{
		name: reflect.TypeFor[T]().String(),
		new:  func() metrics.Block { return P(new(T)) },
		add:  func(dst, src metrics.Block) { metrics.Add(dst.(P), *src.(P)) },
	}
}

// fieldRecord is a metrics.Visitor that records each field it is shown,
// its value as a uint64 (bools as 0 or 1).
type fieldRecord struct {
	names []string
	addrs []uintptr
	vals  []uint64
	bools []bool // whether the field is a bool
}

func (r *fieldRecord) note(name string, addr any, v uint64, isBool bool) {
	r.names = append(r.names, name)
	r.addrs = append(r.addrs, reflect.ValueOf(addr).Pointer())
	r.vals = append(r.vals, v)
	r.bools = append(r.bools, isBool)
}

func (r *fieldRecord) Uint64(name, _ string, _ metrics.Kind, v *uint64) { r.note(name, v, *v, false) }
func (r *fieldRecord) Int64(name, _ string, _ metrics.Kind, v *int64) {
	r.note(name, v, uint64(*v), false)
}
func (r *fieldRecord) Bool(name, _ string, _ metrics.Kind, v *bool) {
	var b uint64
	if *v {
		b = 1
	}
	r.note(name, v, b, true)
}

// leafAddrs collects the address of every scalar field under v, recursing
// into struct fields (embedded or named blocks).
func leafAddrs(v reflect.Value, path string, out map[uintptr]string) {
	if v.Kind() != reflect.Struct {
		out[v.Addr().Pointer()] = path
		return
	}
	for i := 0; i < v.NumField(); i++ {
		leafAddrs(v.Field(i), path+"."+v.Type().Field(i).Name, out)
	}
}

// Each stats block lists every field once: exporters walk Fields alone, so
// a struct field missing from it would silently vanish from warm reruns,
// the sinks' JSON and /metrics. The walk must visit every field's address
// exactly once (OpCounts.ID, the key the codec writes beside the block,
// aside), under names unique in the block; a block of distinct values
// must round-trip through the memo codec, and metrics.Add of a copy must
// double every number and keep every bool.
func TestStatsBlocksListEveryFieldOnce(t *testing.T) {
	for _, tc := range []blockCase{
		blockOf[tmem.TierStats](),
		blockOf[tmem.CompressedTierStats](),
		blockOf[tmem.OpCounts](),
		blockOf[guest.Stats](),
		blockOf[durable.Stats](),
		blockOf[durable.Summary](),
	} {
		t.Run(tc.name, func(t *testing.T) {
			blk := tc.new()
			n := 0
			fillDistinct(t, reflect.ValueOf(blk).Elem(), &n)
			if oc, ok := blk.(*tmem.OpCounts); ok {
				oc.ID = 0
			}

			want := map[uintptr]string{}
			leafAddrs(reflect.ValueOf(blk).Elem(), tc.name, want)
			if oc, ok := blk.(*tmem.OpCounts); ok {
				delete(want, reflect.ValueOf(&oc.ID).Pointer())
			}
			var rec fieldRecord
			blk.Fields(&rec)
			names := map[string]bool{}
			for i, addr := range rec.addrs {
				if _, ok := want[addr]; !ok {
					t.Errorf("field %q: address visited twice or outside the struct", rec.names[i])
				}
				delete(want, addr)
				if names[rec.names[i]] {
					t.Errorf("name %q repeats in the block", rec.names[i])
				}
				names[rec.names[i]] = true
			}
			for _, path := range want {
				t.Errorf("%s is missing from Fields", path)
			}

			d := &memoDec{b: encBlock(nil, blk)}
			got := tc.new()
			got.Fields(d)
			if d.err != nil || len(d.b) != 0 {
				t.Errorf("memo decode: err %v, %d bytes left", d.err, len(d.b))
			}
			if !reflect.DeepEqual(got, blk) {
				t.Errorf("memo round trip:\n got %+v\nwant %+v", got, blk)
			}

			tc.add(got, blk)
			var sum fieldRecord
			got.Fields(&sum)
			for i, v := range rec.vals {
				want := 2 * v
				if rec.bools[i] {
					want = v
				}
				if sum.vals[i] != want {
					t.Errorf("metrics.Add: %s = %d, want %d", rec.names[i], sum.vals[i], want)
				}
			}
		})
	}
}
