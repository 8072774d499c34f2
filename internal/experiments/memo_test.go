package experiments

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
	"time"

	"smartmem/internal/core"
	"smartmem/internal/durable"
	"smartmem/internal/guest"
	"smartmem/internal/mem"
	"smartmem/internal/metrics"
	"smartmem/internal/tmem"
)

// Fingerprints must be stable across calls and sensitive to every job
// coordinate: scenario, policy and seed each produce a distinct run, so
// each must produce a distinct key.
func TestFingerprintStability(t *testing.T) {
	job := Job{Scenario: UsememScenario, PolicySpec: "greedy", Seed: 11}
	a, err := JobFingerprint(job)
	if err != nil {
		t.Fatal(err)
	}
	b, err := JobFingerprint(job)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same job fingerprints differ: %s vs %s", a, b)
	}

	variants := []Job{
		{Scenario: UsememScenario, PolicySpec: "greedy", Seed: 23},
		{Scenario: UsememScenario, PolicySpec: "static-alloc", Seed: 11},
		{Scenario: Scenario1, PolicySpec: "greedy", Seed: 11},
		{Scenario: UsememScenario, PolicySpec: "no-tmem", Seed: 11},
	}
	seen := map[Fingerprint]string{a: job.String()}
	for _, v := range variants {
		fp, err := JobFingerprint(v)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("fingerprint collision: %s and %s", prev, v)
		}
		seen[fp] = v.String()
	}
}

// Cluster fingerprints must be stable across calls and must not depend on
// ClusterConfig.Parallel, which the run ignores.
func TestFingerprintIgnoresClusterParallel(t *testing.T) {
	s, err := BySlug("cluster-2")
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Scenario: s, PolicySpec: "greedy", Seed: 11}
	a, err := JobFingerprint(job)
	if err != nil {
		t.Fatal(err)
	}
	b, err := JobFingerprint(job)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("cluster job fingerprints differ across calls: %s vs %s", a, b)
	}
}

// The codec must reproduce a real Result exactly: single-node, cluster
// (per-node summaries, remote tiers) and compressed-tier runs all
// round-trip through the cache to a deeply equal value.
func TestMemoRoundTrip(t *testing.T) {
	cases := []struct{ slug, policy string }{
		{"scale-2", "greedy"},
		{"cluster-2", "smart-alloc:P=2"},
		{"memory-pressure", "smart-alloc:P=2"},
	}
	m := NewMemo(durable.NewMemStore())
	for _, tc := range cases {
		s, err := BySlug(tc.slug)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunOne(s, tc.policy, 11)
		if err != nil {
			t.Fatalf("%s: %v", tc.slug, err)
		}
		fp, err := JobFingerprint(Job{Scenario: s, PolicySpec: tc.policy, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Put(fp, want); err != nil {
			t.Fatalf("%s: put: %v", tc.slug, err)
		}
		got, ok := m.Get(fp)
		if !ok {
			t.Fatalf("%s: fresh entry missed", tc.slug)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded result differs from original", tc.slug)
		}
	}
	if st := m.Stats(); st.Corrupt != 0 || st.Hits != uint64(len(cases)) {
		t.Errorf("stats = %+v", m.Stats())
	}
}

// The codec walks every field of core.Result and its component structs by
// hand. Pin the struct shapes so adding a field anywhere in the result
// tree fails here until the codec — and memoFormatVersion — are updated
// with it.
func TestMemoCodecCoversResult(t *testing.T) {
	shapes := []struct {
		v    any
		want int
	}{
		{core.Result{}, 15},
		{core.RunRecord{}, 4},
		{core.VMResult{}, 4},
		{core.NodeResult{}, 9},
		{guest.Stats{}, 13},
		{tmem.OpCounts{}, 7},
		{tmem.TierStats{}, 7},
		{tmem.CompressedTierStats{}, 10},
		{durable.Summary{}, 2},
		{durable.Stats{}, 12},
	}
	// The shapes above are those of format v3; they move with the version.
	if memoFormatVersion != 3 {
		t.Errorf("memoFormatVersion = %d: re-pin the struct shapes above for the new format", memoFormatVersion)
	}
	for _, s := range shapes {
		typ := reflect.TypeOf(s.v)
		if got := typ.NumField(); got != s.want {
			t.Errorf("%s has %d fields, codec expects %d — update the memo codec and bump memoFormatVersion",
				typ, got, s.want)
		}
	}

	// Counting fields cannot tell which blob a new field must travel in, or
	// that it travels at all. Set every field of a Result to a distinct
	// non-zero value: the scalar read must return all of them but Series,
	// the full read all of them.
	want := &core.Result{}
	n := 0
	fillDistinct(t, reflect.ValueOf(want).Elem(), &n)
	want.Series = metrics.NewSet()
	want.Series.Get("a").Add(1, 2)
	want.Series.Get("b")
	m := NewMemo(durable.NewMemStore())
	fp := Fingerprint{1}
	if err := m.Put(fp, want); err != nil {
		t.Fatal(err)
	}
	if got, ok := m.Get(fp); !ok || !reflect.DeepEqual(got, want) {
		t.Errorf("full read loses a field:\n got %+v\nwant %+v", got, want)
	}
	scalars := *want
	scalars.Series = nil
	if got, ok := m.get(fp, false); !ok || !reflect.DeepEqual(got, &scalars) {
		t.Errorf("scalar read loses a field:\n got %+v\nwant %+v", got, &scalars)
	}
}

// fillDistinct sets every settable field under v to a distinct non-zero
// value: slices get two elements, pointers a fresh target. Types with
// unexported state (metrics.Set) are left to the caller.
func fillDistinct(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n))
	case reflect.String:
		v.SetString(fmt.Sprint("s", *n))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), n)
		}
	case reflect.Ptr:
		if v.Type() == reflect.TypeOf((*metrics.Set)(nil)) {
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(t, v.Elem(), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), n)
		}
	default:
		t.Fatalf("fillDistinct: %s fields are new to core.Result — teach the codec and this test", v.Kind())
	}
}

// A present-but-corrupt entry must read as a miss, bump the corrupt
// counter, and be silently recomputed (and overwritten) with the correct
// result.
func TestMemoCorruptEntryRecomputed(t *testing.T) {
	store := durable.NewMemStore()
	cache := NewMemo(store)
	s, err := BySlug("scale-2")
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{{Scenario: s, PolicySpec: "greedy", Seed: 11}}
	opt := Options{Parallelism: 1, Cache: cache}

	first, err := opt.run(jobs, false)
	if err != nil {
		t.Fatal(err)
	}

	fp, err := JobFingerprint(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Corrupt(memoKey(fp), func(b []byte) []byte {
		b[len(b)/2] ^= 0xff // flip a payload byte under the checksum
		return b
	}); err != nil {
		t.Fatal(err)
	}
	// Without its pack the sweep reads the damaged record itself.
	dropPacks(t, store)

	second, err := opt.run(jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first[0].Result, second[0].Result) {
		t.Error("recomputed result differs from original")
	}
	st := cache.Stats()
	if st.Corrupt != 1 {
		t.Errorf("corrupt counter = %d, want 1", st.Corrupt)
	}
	if st.Writes != 2 {
		t.Errorf("writes = %d, want 2 (initial + recompute overwrite)", st.Writes)
	}

	// The overwrite healed the entry: a third pass is a pure hit.
	if _, ok := cache.Get(fp); !ok {
		t.Error("entry still unreadable after recompute")
	}
}

// The headline guarantee: a warm-cache tournament serves every cell from
// the cache and emits a league document byte-identical to the cold pass.
func TestTournamentColdWarmIdentical(t *testing.T) {
	s, err := BySlug("scale-2")
	if err != nil {
		t.Fatal(err)
	}
	cache := NewMemo(durable.NewMemStore())
	opt := Options{Parallelism: 4, Cache: cache}
	policies := []string{"greedy", "static-alloc"}
	seeds := []uint64{11, 23}

	render := func() []byte {
		league, err := RunTournament([]*Scenario{s}, policies, seeds, opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteLeagueJSON(&buf, league); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	cold := render()
	st := cache.Stats()
	if st.Misses != 4 || st.Writes != 4 {
		t.Fatalf("cold pass stats = %+v, want 4 misses / 4 writes", st)
	}

	warm := render()
	st = cache.Stats()
	if st.Hits != 4 || st.Misses != 4 {
		t.Errorf("warm pass stats = %+v, want 4 hits on top of the cold misses", st)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm league differs from cold:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}

	// The times table is the other scalar-only aggregation: served from
	// the same entries it must equal the table of a cache-less sweep.
	coldTimes, err := TimesOpts(s, policies, seeds, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	warmTimes, err := TimesOpts(s, policies, seeds, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 8 || st.Misses != 4 || st.Corrupt != 0 {
		t.Errorf("warm times stats = %+v, want 4 more hits", st)
	}
	if !reflect.DeepEqual(coldTimes, warmTimes) {
		t.Errorf("warm times table differs from cold:\ncold: %+v\nwarm: %+v", coldTimes.Rows, warmTimes.Rows)
	}
}

// Cancelling a sweep mid-flight may cut it short, but it must never leave
// a partial or undecodable cache entry behind — and finishing the sweep
// later against the same cache must produce exactly the uncached outcome.
func TestCancellationNeverPoisonsCache(t *testing.T) {
	s, err := BySlug("scale-2")
	if err != nil {
		t.Fatal(err)
	}
	store := durable.NewMemStore()
	cache := NewMemo(store)
	policies := []string{"greedy", "static-alloc"}
	seeds := []uint64{11, 23, 37}

	ctx, cancel := context.WithCancel(context.Background())
	opt := Options{
		Parallelism: 2,
		Cache:       cache,
		Context:     ctx,
		OnProgress: func(done, total int, j Job) {
			if done == 1 {
				cancel() // stop the sweep after the first completed cell
			}
		},
	}
	if _, err := RunMatrix([]*Scenario{s}, policies, seeds, opt); err == nil {
		t.Fatal("cancelled sweep returned no error")
	}

	// Every entry the truncated sweep wrote must decode cleanly.
	keys, err := store.List("memo/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Fatal("sweep wrote no entries before cancellation")
	}
	for _, key := range keys {
		raw, err := hex.DecodeString(key[len("memo/"):])
		if err != nil || len(raw) != len(Fingerprint{}) {
			t.Fatalf("malformed memo key %q", key)
		}
		var fp Fingerprint
		copy(fp[:], raw)
		if _, ok := cache.Get(fp); !ok {
			t.Errorf("entry %s poisoned by cancellation", key)
		}
	}
	if st := cache.Stats(); st.Corrupt != 0 {
		t.Errorf("truncated sweep left %d corrupt entries", st.Corrupt)
	}

	// Resuming against the same cache must match a cache-less sweep.
	want, err := RunMatrix([]*Scenario{s}, policies, seeds, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunMatrix([]*Scenario{s}, policies, seeds, Options{Parallelism: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(want[i].Result, got[i].Result) {
			t.Errorf("cell %d (%s): cached resume differs from fresh sweep", i, want[i].Job)
		}
	}
}

// The cursor's longest-first dispatch may only change wall-clock order: a
// 4-worker pool's merged results must be deeply identical to one worker
// running the cells in submission order.
func TestCursorMatchesSequential(t *testing.T) {
	s, err := BySlug("scale-2")
	if err != nil {
		t.Fatal(err)
	}
	jobs := Matrix([]*Scenario{s}, []string{"greedy", "static-alloc"}, []uint64{11, 23})

	seq, err := Options{Parallelism: 1}.run(jobs, false)
	if err != nil {
		t.Fatal(err, false)
	}
	pool, err := Options{Parallelism: 4}.run(jobs, false)
	if err != nil {
		t.Fatal(err, false)
	}
	for i := range seq {
		if pool[i].Index != seq[i].Index {
			t.Fatalf("result %d out of order under the pool", i)
		}
		if !reflect.DeepEqual(pool[i].Result, seq[i].Result) {
			t.Errorf("cell %d (%s): pool result differs from sequential", i, seq[i].Job)
		}
	}
}

// scheduleOrder must sort longest-expected-first, preferring observed EWMA
// durations over the static prior, with ties keeping submission order.
func TestScheduleOrderLongestFirst(t *testing.T) {
	// Unique slugs so the process-global cost model isn't polluted by (or
	// polluting) other tests.
	mk := func(slug string, tmemMiB int) *Scenario {
		return &Scenario{Slug: slug, TmemBytes: mem.Bytes(tmemMiB) * mem.MiB}
	}
	small := mk("order-test-small", 64)
	big := mk("order-test-big", 1024)

	jobs := []Job{
		{Scenario: small, PolicySpec: "greedy", Seed: 11},
		{Scenario: big, PolicySpec: "greedy", Seed: 11},
		{Scenario: small, PolicySpec: "no-tmem", Seed: 11},
	}
	// Static priors: big (1024) > small no-tmem (64×2) > small greedy (64).
	if got := scheduleOrder(jobs, []int{0, 1, 2}); got[0] != 1 || got[1] != 2 || got[2] != 0 {
		t.Errorf("static-prior order = %v, want [1 2 0]", got)
	}

	// An observation overrides the prior: make the small greedy cell the
	// known-longest.
	observeCost(jobs[0], 10*time.Second)
	observeCost(jobs[1], time.Millisecond)
	observeCost(jobs[2], time.Second)
	if got := scheduleOrder(jobs, []int{0, 1, 2}); got[0] != 0 || got[1] != 2 || got[2] != 1 {
		t.Errorf("observed order = %v, want [0 2 1]", got)
	}

	// EWMA: a second, faster observation halves toward the new value.
	observeCost(jobs[0], 0)
	if c := estimateCost(jobs[0]); c != float64(5*time.Second) {
		t.Errorf("EWMA after 10s,0s = %v ns, want 5s", c)
	}
}

// Memo hits replay no lifecycle events, so the engine must bypass the
// cache — serving real runs — whenever an event callback is attached.
func TestCacheBypassedWithEventObserver(t *testing.T) {
	s, err := BySlug("scale-2")
	if err != nil {
		t.Fatal(err)
	}
	cache := NewMemo(durable.NewMemStore())
	jobs := []Job{{Scenario: s, PolicySpec: "greedy", Seed: 11}}

	// Prime the cache.
	if _, err := (Options{Parallelism: 1, Cache: cache}).run(jobs, false); err != nil {
		t.Fatal(err, false)
	}

	events := 0
	opt := Options{Parallelism: 1, Cache: cache, OnEvent: func(j Job, e RunEvent) { events++ }}
	if _, err := opt.run(jobs, false); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Error("no events observed: cache served a run despite OnEvent")
	}
	if st := cache.Stats(); st.Hits != 0 {
		t.Errorf("cache hits = %d with OnEvent attached, want 0", st.Hits)
	}
}
