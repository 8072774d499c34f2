package metrics

// Block is a counter block that lists its fields once, in declaration
// order. Every exporter walks that list — the sinks' JSON, kvd's /metrics,
// the memo codec and cluster sums — so a field added to the struct and to
// Fields reaches all of them, and one left out of Fields reaches none.
type Block interface {
	Fields(Visitor)
}

// Kind says what a field's value measures, which decides how an exporter
// names, types and scales it.
type Kind uint8

const (
	Counter      Kind = iota // a cumulative count
	Gauge                    // a current level
	VirtualNanos             // cumulative virtual (simulated) time, in nanoseconds
	WallNanos                // cumulative wall-clock time, in nanoseconds: differs run to run
)

// Visitor receives a block's fields, one method per value type. name is
// snake_case and unique within the block, help is one sentence, and v is
// the field's address: a reader loads it, a decoder stores it.
type Visitor interface {
	Uint64(name, help string, k Kind, v *uint64)
	Int64(name, help string, k Kind, v *int64)
	Bool(name, help string, k Kind, v *bool)
}

// Add folds src into dst field by field (cluster aggregation): numbers
// sum, gauges too, so a sum reads as the cluster total, and bools OR.
func Add[T any, P interface {
	*T
	Block
}](dst P, src T) {
	var vals values
	P(&src).Fields(&vals)
	dst.Fields(&adder{vals: vals})
}

// values records a block's field values in order, bools as 0 or 1.
type values []uint64

func (vs *values) Uint64(_, _ string, _ Kind, v *uint64) { *vs = append(*vs, *v) }
func (vs *values) Int64(_, _ string, _ Kind, v *int64)   { *vs = append(*vs, uint64(*v)) }
func (vs *values) Bool(_, _ string, _ Kind, v *bool) {
	var b uint64
	if *v {
		b = 1
	}
	*vs = append(*vs, b)
}

// adder adds recorded values to a second walk of the same block type.
type adder struct {
	vals values
	i    int
}

func (a *adder) next() uint64 { a.i++; return a.vals[a.i-1] }

func (a *adder) Uint64(_, _ string, _ Kind, v *uint64) { *v += a.next() }
func (a *adder) Int64(_, _ string, _ Kind, v *int64)   { *v += int64(a.next()) }
func (a *adder) Bool(_, _ string, _ Kind, v *bool)     { *v = a.next() == 1 || *v }
