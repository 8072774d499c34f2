package core

import (
	"strings"
	"testing"

	"smartmem/internal/mem"
	"smartmem/internal/policy"
	"smartmem/internal/sim"
	"smartmem/internal/workload"
)

// validConfig returns a minimal configuration that passes validation;
// tests mutate one field at a time.
func validConfig() Config {
	return Config{
		TmemBytes:   64 * mem.MiB,
		TmemEnabled: true,
		Seed:        1,
		VMs: []VMSpec{
			{ID: 1, Name: "VM1", RAMBytes: 64 * mem.MiB, Workload: workload.DefaultUsemem()},
			{ID: 2, Name: "VM2", RAMBytes: 64 * mem.MiB, Workload: workload.DefaultUsemem()},
		},
	}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	if err := validConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	// normalize fills defaults without erroring.
	cfg, err := validConfig().normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PageSize != 64*mem.KiB {
		t.Errorf("default page size = %d", cfg.PageSize)
	}
	if cfg.SampleInterval != sim.Second {
		t.Errorf("default sample interval = %d", cfg.SampleInterval)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{
			name:    "duplicate VM id",
			mutate:  func(c *Config) { c.VMs[1].ID = c.VMs[0].ID },
			wantErr: "duplicate VM id",
		},
		{
			name:    "duplicate VM name",
			mutate:  func(c *Config) { c.VMs[1].Name = c.VMs[0].Name },
			wantErr: "duplicate VM name",
		},
		{
			name:    "page size not a power of two",
			mutate:  func(c *Config) { c.PageSize = 3000 },
			wantErr: "power of two",
		},
		{
			name:    "negative page size",
			mutate:  func(c *Config) { c.PageSize = -4096 },
			wantErr: "power of two",
		},
		{
			name:    "tmem enabled with zero capacity",
			mutate:  func(c *Config) { c.TmemBytes = 0 },
			wantErr: "tmem enabled with non-positive capacity",
		},
		{
			name:    "tmem enabled with negative capacity",
			mutate:  func(c *Config) { c.TmemBytes = -1 },
			wantErr: "tmem enabled with non-positive capacity",
		},
		{
			name:    "negative sample interval",
			mutate:  func(c *Config) { c.SampleInterval = -sim.Second },
			wantErr: "negative sample interval",
		},
		{
			name:    "no VMs",
			mutate:  func(c *Config) { c.VMs = nil },
			wantErr: "no VMs configured",
		},
		{
			name:    "unnamed VM",
			mutate:  func(c *Config) { c.VMs[0].Name = "" },
			wantErr: "has no name",
		},
		{
			name:    "VM without workload",
			mutate:  func(c *Config) { c.VMs[0].Workload = nil },
			wantErr: "has no workload",
		},
		{
			name:    "VM with non-positive RAM",
			mutate:  func(c *Config) { c.VMs[0].RAMBytes = 0 },
			wantErr: "non-positive RAM",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error = %q, want substring %q", err, tc.wantErr)
			}
			// The same error surfaces from Run, so misconfigured batch
			// callers fail identically.
			if _, rerr := Run(cfg); rerr == nil || rerr.Error() != err.Error() {
				t.Errorf("Run error = %v, want %v", rerr, err)
			}
		})
	}
}

// TestValidateDoesNotMutate: Validate works on a copy; the receiver keeps
// its zero defaults.
func TestValidateDoesNotMutate(t *testing.T) {
	cfg := validConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.PageSize != 0 || cfg.SampleInterval != 0 {
		t.Errorf("Validate mutated the config: %+v", cfg)
	}
}

// The NoTmem sentinel (policy.Parse("no-tmem")) must be honoured exactly
// like TmemEnabled=false: no backend, baseline policy name, and validation
// must not demand a tmem capacity.
func TestNoTmemSentinelRunsBaseline(t *testing.T) {
	cfg := validConfig()
	cfg.Policy = policy.NoTmem{}

	norm, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.TmemEnabled || norm.Policy != nil {
		t.Errorf("sentinel not honoured: enabled=%v policy=%v", norm.TmemEnabled, norm.Policy)
	}
	if name := norm.PolicyName(); name != policy.NoTmemName {
		t.Errorf("policy name = %q, want %q", name, policy.NoTmemName)
	}
	// Even with no capacity configured the sentinel must validate (the
	// baseline needs none).
	cfg.TmemBytes = 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("no-tmem sentinel with zero capacity rejected: %v", err)
	}
}
