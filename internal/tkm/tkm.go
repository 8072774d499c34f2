// Package tkm implements the Tmem Kernel Module of the SmarTmem
// architecture (paper §III-C): the bridge between the hypervisor's tmem
// statistics and the user-space Memory Manager (MM).
//
// In the paper the hypervisor raises a VIRQ once per second; the TKM reads
// the statistics, forwards them to the MM over a netlink socket, and
// relays the MM's computed targets back to the hypervisor through custom
// hypercalls. Here the MM's policy runs in-process, so the same three-step
// exchange is a function call and a run stays deterministic.
package tkm

import "smartmem/internal/tmem"

// TKM is the kernel-module bridge. One TKM exists per node, in the
// privileged domain (paper Figure 2).
type TKM struct {
	backend *tmem.Backend
	policy  PolicyFunc
	seq     uint64
}

// PolicyFunc is the Memory Manager as seen from the TKM: the subset of
// policy.Policy that consumes one statistics sample and returns the target
// batch (nil when the policy has nothing to send — the paper's
// send_to_hypervisor suppression). Declared here to avoid a dependency
// cycle with the policy package's tests.
type PolicyFunc interface {
	Targets(tmem.MemStats) []tmem.TargetUpdate
}

// New creates a TKM bound to a hypervisor backend and an MM policy (e.g.
// *policy.Dedup).
func New(backend *tmem.Backend, policy PolicyFunc) *TKM {
	if backend == nil {
		panic("tkm: nil backend")
	}
	if policy == nil {
		panic("tkm: nil policy")
	}
	return &TKM{backend: backend, policy: policy}
}

// Tick performs one full VIRQ cycle: sample statistics, deliver them to
// the MM, apply any returned targets. It returns the sample and targets
// for observability (the node's monitor records both).
//
// The sample is aggregated from the backend's striped atomic counters
// without taking any store lock, so a Tick never stalls the put/get/flush
// data path — the sharded store keeps serving while the MM deliberates.
func (t *TKM) Tick() (tmem.MemStats, []tmem.TargetUpdate) {
	t.seq++
	ms := t.backend.Sample(t.seq)
	targets := t.policy.Targets(ms)
	if len(targets) > 0 {
		t.backend.ApplyTargets(targets)
	}
	return ms, targets
}
