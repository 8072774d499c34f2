package experiments

import (
	"bufio"
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"smartmem/internal/core"
	"smartmem/internal/durable"
	"smartmem/internal/policy"
	"smartmem/internal/sim"
)

// leagueJSON runs a tournament and returns its league document.
func leagueJSON(t *testing.T, scns []*Scenario, policies []string, seeds []uint64, opt Options) []byte {
	t.Helper()
	lt, err := RunTournament(scns, policies, seeds, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLeagueJSON(&buf, lt); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testdata/fingerprints.txt was written by the commit before the engine
// cached fingerprints: one "slug policy seed hex" line per registered
// scenario × its own policies × seeds {1, 11}, plus the constructed scale-2.
// The memo keys must not move, through the cache or around it.
func TestFingerprintsPinned(t *testing.T) {
	f, err := os.Open("testdata/fingerprints.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pinned := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 4 {
			t.Fatalf("malformed line %q", sc.Text())
		}
		s, err := BySlug(fields[0])
		if err != nil {
			t.Fatal(err)
		}
		seed, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		job := Job{Scenario: s, PolicySpec: fields[1], Seed: seed}
		pinned[job.String()] = true
		plain, err := JobFingerprint(job)
		if err != nil {
			t.Fatal(err)
		}
		if plain.String() != fields[3] {
			t.Errorf("%s: JobFingerprint %s, pinned %s", job, plain, fields[3])
		}
		for pass := 0; pass < 2; pass++ { // a miss that fills the cache, then a hit
			if fp, err := jobFingerprint(job); err != nil || fp.String() != fields[3] {
				t.Errorf("%s: cached fingerprint %s (%v) on pass %d, pinned %s", job, fp, err, pass, fields[3])
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, s := range All() {
		if s.Slug == "custom-test-scenario" { // registered by TestRegistryOrderAndRegistration
			continue
		}
		for _, pol := range s.Policies {
			for _, seed := range []uint64{1, 11} {
				if job := (Job{Scenario: s, PolicySpec: pol, Seed: seed}); !pinned[job.String()] {
					t.Errorf("%s has no pinned fingerprint", job)
				}
			}
		}
	}
}

// The per-cell records the commit before packs wrote (testdata/parent-memo:
// scale-2 × greedy, smart-alloc:P=2 × seeds 11, 23) serve this commit's warm
// tournament with no miss; the tournament then packs them byte for byte, and
// the next one is served from the pack.
func TestMemoParentFixture(t *testing.T) {
	dir := t.TempDir() // the sweep writes its pack
	if err := os.CopyFS(dir, os.DirFS("testdata/parent-memo")); err != nil {
		t.Fatal(err)
	}
	cache, err := OpenDirMemo(dir)
	if err != nil {
		t.Fatal(err)
	}
	scns := []*Scenario{mustScale("scale-2")}
	policies := []string{"greedy", "smart-alloc:P=2"}
	seeds := []uint64{11, 23}
	jobs := Matrix(scns, policies, seeds)
	league := func(opt Options) []byte { return leagueJSON(t, scns, policies, seeds, opt) }

	cold := league(Options{Parallelism: 2})
	if warm := league(Options{Parallelism: 2, Cache: cache}); !bytes.Equal(warm, cold) {
		t.Errorf("league from the parent's records differs from a cold one:\n%s\nvs\n%s", warm, cold)
	}
	if st := cache.Stats(); st.Hits != 4 || st.Misses != 0 || st.Corrupt != 0 || st.Writes != 0 || st.WriteErrs != 0 {
		t.Fatalf("stats over the parent's records = %+v, want 4 hits and nothing else", st)
	}

	var fps []Fingerprint
	var want []byte
	for _, j := range jobs {
		fp, err := JobFingerprint(j)
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fp)
		rec, err := os.ReadFile(filepath.Join(dir, memoKey(fp)))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rec...)
	}
	if pack, err := os.ReadFile(filepath.Join(dir, packKey(fps))); err != nil || !bytes.Equal(pack, want) {
		t.Fatalf("pack = %d bytes (%v), want the parent's %d record bytes in job order", len(pack), err, len(want))
	}

	before := cache.Stats().BytesRead
	if warm := league(Options{Parallelism: 2, Cache: cache}); !bytes.Equal(warm, cold) {
		t.Error("league from the pack differs from a cold one")
	}
	if got := cache.Stats().BytesRead - before; got != uint64(len(want)) {
		t.Errorf("pack-served tournament read %d bytes, want the pack's %d", got, len(want))
	}

	// The parent's series blobs read back too.
	fresh, err := RunMatrix(scns, policies, seeds, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunMatrix(scns, policies, seeds, Options{Parallelism: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh {
		if !reflect.DeepEqual(got[i].Result, fresh[i].Result) {
			t.Errorf("%s: result from the parent's blobs differs from a fresh run", fresh[i].Job)
		}
	}
	if st := cache.Stats(); st.Misses != 0 || st.Corrupt != 0 {
		t.Errorf("stats = %+v, want no miss", st)
	}
}

// Damage to the pack costs per-cell reads, never a miss, a corrupt count or
// a different league: a lost pack sends every cell to its own record, a
// flipped byte in one packed record sends that cell alone; either way the
// run stores the pack again and the next run is one read.
func TestMemoPackRecovery(t *testing.T) {
	scns := []*Scenario{mustScale("scale-2")}
	policies := []string{"greedy", "smart-alloc:P=2"}
	seeds := []uint64{11, 23}
	const cells = 4
	var fps []Fingerprint
	for _, j := range Matrix(scns, policies, seeds) {
		fp, err := JobFingerprint(j)
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fp)
	}
	key := packKey(fps)

	mem := durable.NewMemStore()
	store := &countingStore{BlobStore: mem}
	cache := NewMemo(store)
	league := func() []byte { return leagueJSON(t, scns, policies, seeds, Options{Parallelism: 2, Cache: cache}) }
	cold := league()
	rec0, err := mem.Get(memoKey(fps[0]))
	if err != nil {
		t.Fatal(err)
	}
	rec1, err := mem.Get(memoKey(fps[1]))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name     string
		hurt     func() error
		cellGets []string
	}{
		{"pack deleted", func() error { return mem.Delete(key) },
			[]string{memoKey(fps[0]), memoKey(fps[1]), memoKey(fps[2]), memoKey(fps[3])}},
		{"packed record flipped", func() error {
			// A byte in the middle of the second record's payload.
			return mem.Corrupt(key, func(b []byte) []byte { b[len(rec0)+len(rec1)/2] ^= 0x01; return b })
		}, []string{memoKey(fps[1])}},
	} {
		if err := tc.hurt(); err != nil {
			t.Fatal(err)
		}
		store.reset()
		before := cache.Stats()
		if got := league(); !bytes.Equal(got, cold) {
			t.Errorf("%s: league differs from the cold one", tc.name)
		}
		slices.Sort(store.cellGets)
		slices.Sort(tc.cellGets)
		if store.gets != 1+len(tc.cellGets) || !slices.Equal(store.cellGets, tc.cellGets) {
			t.Errorf("%s: %d gets, scalar records %v; want the pack and %v", tc.name, store.gets, store.cellGets, tc.cellGets)
		}
		if store.puts != 1 || store.packPuts != 1 {
			t.Errorf("%s: %d puts (%d packs), want the pack alone", tc.name, store.puts, store.packPuts)
		}
		st := cache.Stats()
		if st.Hits-before.Hits != cells || st.Misses != before.Misses || st.Corrupt != 0 || st.Writes != before.Writes {
			t.Errorf("%s: stats %+v -> %+v, want %d hits and nothing else", tc.name, before, st, cells)
		}

		store.reset()
		if got := league(); !bytes.Equal(got, cold) {
			t.Errorf("%s: league from the rewritten pack differs", tc.name)
		}
		if store.gets != 1 || store.puts != 0 {
			t.Errorf("%s: after the rewrite %d gets and %d puts, want 1 and 0", tc.name, store.gets, store.puts)
		}
	}
}

// Only a run whose every cell ended with a stored record writes a pack: a
// cancelled sweep and a sweep with a failed cell store their finished cells'
// records and no pack.
func TestMemoPackNotWrittenByFailedRun(t *testing.T) {
	s := mustScale("scale-2")
	// A cell that fingerprints fine and fails on the virtual-time limit.
	short := NewScenario(Scenario{Slug: "pack-test-limit", TmemBytes: s.TmemBytes},
		func(seed uint64, pol policy.Policy, tmemOn bool) core.Config {
			cfg := s.build(seed, pol, tmemOn)
			cfg.Limit = 200 * sim.Millisecond
			return cfg
		})
	ok := Job{Scenario: s, PolicySpec: "greedy", Seed: 11}

	check := func(name string, store *durable.MemStore, cells int) {
		t.Helper()
		if keys, err := store.List(memoPrefix); err != nil || len(keys) != cells {
			t.Errorf("%s: %d cell records (%v), want %d", name, len(keys), err, cells)
		}
		if keys, err := store.List(packPrefix); err != nil || len(keys) != 0 {
			t.Errorf("%s: packs %v (%v), want none", name, keys, err)
		}
	}

	store := durable.NewMemStore()
	opt := Options{Parallelism: 1, Cache: NewMemo(store)}
	if _, err := opt.run([]Job{ok, {Scenario: short, PolicySpec: "greedy", Seed: 11}}, false); err == nil {
		t.Fatal("a cell over its limit did not fail the sweep")
	}
	check("failed", store, 1)

	store = durable.NewMemStore()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt = Options{Parallelism: 1, Cache: NewMemo(store), Context: ctx, OnProgress: func(done, total int, j Job) {
		if done == 1 {
			cancel()
		}
	}}
	if _, err := opt.run(Matrix([]*Scenario{s}, []string{"greedy"}, []uint64{11, 23}), false); err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
	check("cancelled", store, 1)
}
