package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sync"

	"smartmem/internal/core"
)

// memoFormatVersion versions the whole memoization contract: the
// fingerprint input layout below AND the cached-result binary encoding in
// memo.go. Bump it whenever either changes (new Config field that affects
// runs, new Result field, reordered encoding) — old cache entries then miss
// on key and are recomputed; nothing is ever migrated in place, and only
// the current version's codec exists.
//
// v2: a cell is a scalar record plus a separate series blob (v1 was one
// blob holding both). v3: durable.Stats carries CompactNanos and Compacting.
const memoFormatVersion = 3

// Fingerprint identifies a deterministic run: the SHA-256 of (format
// version, scenario slug, policy spec, seed, normalized core.Config). Two
// jobs with equal fingerprints produce byte-identical core.Results, because
// the simulator is a pure function of its normalized config.
type Fingerprint [sha256.Size]byte

// String returns the lowercase hex form (the cache key suffix).
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// JobFingerprint computes the memoization key of one sweep cell. It builds
// the scenario's config (Build/BuildCluster are required to be cheap and
// side-effect free) and hashes every plain field that shapes the run.
//
// One deliberate exclusion, workload internals: workloads are identified by
// Workload.Name() plus the scenario slug. Scenario constructors own their
// workload parameters, so (slug, VM shape, workload name) pins them; anyone
// editing a workload's constants inside an existing scenario must bump
// memoFormatVersion (or use a fresh slug) to invalidate cached runs.
func JobFingerprint(j Job) (Fingerprint, error) {
	if j.Scenario == nil {
		return Fingerprint{}, fmt.Errorf("experiments: cannot fingerprint a job with no scenario")
	}
	hw := fpWriter{h: sha256.New()}
	hw.str("smartmem-memo")
	hw.u64(memoFormatVersion)
	hw.str(j.Scenario.Slug)
	hw.str(j.PolicySpec)
	hw.u64(j.Seed)

	if j.Scenario.IsCluster() {
		cc, err := j.Scenario.BuildCluster(j.Seed, j.PolicySpec)
		if err != nil {
			return Fingerprint{}, err
		}
		nodes, err := cc.NormalizedNodes()
		if err != nil {
			return Fingerprint{}, err
		}
		hw.str("cluster")
		hw.bool(cc.RemoteTmem)
		hw.u64(uint64(len(nodes)))
		for _, n := range nodes {
			hw.config(n)
		}
	} else {
		cfg, err := j.Scenario.Build(j.Seed, j.PolicySpec)
		if err != nil {
			return Fingerprint{}, err
		}
		cfg, err = cfg.Normalized()
		if err != nil {
			return Fingerprint{}, err
		}
		hw.str("node")
		hw.config(cfg)
	}

	var f Fingerprint
	hw.h.Sum(f[:0])
	return f, nil
}

// fpCache memoizes JobFingerprint for the life of the process, keyed by
// (scenario pointer, policy spec, seed), so a repeated sweep skips every
// Build and hash. That is sound because Build/BuildCluster are pure and a
// *Scenario is not mutated once it has been run: the same key always
// builds the same config. Errors are not cached (they recur on the run
// itself). The map is dropped whole at fpCacheMax entries: a process that
// keeps constructing scenarios must not grow it without bound.
var fpCache = struct {
	sync.Mutex
	m map[fpKey]Fingerprint
}{m: make(map[fpKey]Fingerprint)}

const fpCacheMax = 1 << 16

type fpKey struct {
	s    *Scenario
	pol  string
	seed uint64
}

// jobFingerprint is JobFingerprint through fpCache; its output is the same.
func jobFingerprint(j Job) (Fingerprint, error) {
	k := fpKey{j.Scenario, j.PolicySpec, j.Seed}
	fpCache.Lock()
	fp, ok := fpCache.m[k]
	fpCache.Unlock()
	if ok {
		return fp, nil
	}
	fp, err := JobFingerprint(j)
	if err != nil {
		return fp, err
	}
	fpCache.Lock()
	if len(fpCache.m) >= fpCacheMax {
		clear(fpCache.m)
	}
	fpCache.m[k] = fp
	fpCache.Unlock()
	return fp, nil
}

// fpWriter feeds length-prefixed primitives into a hash. Every value is
// written with an unambiguous framing (fixed-width integers, u64
// length-prefixed strings) so distinct field sequences can never collide by
// concatenation.
type fpWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (w *fpWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *fpWriter) i64(v int64) { w.u64(uint64(v)) }

func (w *fpWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *fpWriter) bool(v bool) {
	if v {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

func (w *fpWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.h.Write([]byte(s))
}

// config hashes every plain (hashable) field of a normalized Config.
// Function- and pointer-valued fields (Policy, Workload, Stop, OnMilestone,
// DurableBlob) cannot be hashed by value; they are represented
// by their names / presence, which the scenario slug pins (see
// JobFingerprint).
func (w *fpWriter) config(c core.Config) {
	w.i64(int64(c.PageSize))
	w.i64(int64(c.TmemBytes))
	w.bool(c.TmemEnabled)
	w.str(c.PolicyName())
	w.i64(int64(c.SampleInterval))
	w.i64(int64(c.DiskReadService))
	w.i64(int64(c.DiskWriteService))
	w.f64(c.DiskJitter)
	w.u64(c.Seed)
	w.i64(int64(c.Limit))
	w.i64(int64(c.StartJitter))
	w.str("meta") // the retired page-store kind, kept so recorded fingerprints stay valid
	w.i64(int64(c.CompressBytes))
	w.str("") // the retired codec knob (always the default lz), kept so recorded fingerprints stay valid
	w.bool(c.DurableBlob != nil)
	w.bool(c.Cleancache)
	w.bool(c.NonExclusiveFrontswap)
	w.u64(uint64(len(c.VMs)))
	for _, vm := range c.VMs {
		w.i64(int64(vm.ID))
		w.str(vm.Name)
		w.i64(int64(vm.RAMBytes))
		w.i64(int64(vm.KernelReserveBytes))
		w.i64(int64(vm.StartDelay))
		if vm.Workload != nil {
			w.str(vm.Workload.Name())
		} else {
			w.str("")
		}
	}
}
