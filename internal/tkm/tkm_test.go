package tkm

import (
	"testing"

	"smartmem/internal/mem"
	"smartmem/internal/policy"
	"smartmem/internal/tmem"
)

func newBackend(pages mem.Pages, vms ...tmem.VMID) *tmem.Backend {
	b := tmem.NewBackend(pages, tmem.NewMetaStore(4096))
	for _, vm := range vms {
		b.RegisterVM(vm)
	}
	return b
}

func TestTickAppliesPolicyTargets(t *testing.T) {
	b := newBackend(3000, 1, 2, 3)
	tk := New(b, policy.StaticAlloc{})

	ms, targets := tk.Tick()
	if ms.VMCount() != 3 || ms.IntervalSeq != 1 {
		t.Errorf("sample = %+v", ms)
	}
	if len(targets) != 3 {
		t.Fatalf("targets = %v", targets)
	}
	for _, vm := range []tmem.VMID{1, 2, 3} {
		if got := b.Target(vm); got != 1000 {
			t.Errorf("VM %d target = %d, want 1000", vm, got)
		}
	}
}

func TestTickWithGreedyLeavesDefaults(t *testing.T) {
	b := newBackend(1000, 1)
	tk := New(b, policy.Greedy{})
	if _, targets := tk.Tick(); targets != nil {
		t.Errorf("greedy tick: targets=%v", targets)
	}
	if b.Target(1) != tmem.Unlimited {
		t.Errorf("target = %d, want Unlimited", b.Target(1))
	}
}

func TestTickSequencesSamples(t *testing.T) {
	b := newBackend(100, 1)
	tk := New(b, policy.Greedy{})
	for want := uint64(1); want <= 5; want++ {
		ms, _ := tk.Tick()
		if ms.IntervalSeq != want {
			t.Errorf("seq = %d, want %d", ms.IntervalSeq, want)
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	b := newBackend(1)
	for name, fn := range map[string]func(){
		"nil backend": func() { New(nil, policy.Greedy{}) },
		"nil policy":  func() { New(b, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
