package main

import (
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		k       knobs
		wantErr string // "" = valid
	}{
		{name: "defaults", k: knobs{backend: "sim", straggle: 0.25, policy: "fair"}},
		{name: "fifo policy", k: knobs{backend: "sim", tenants: 4, policy: "fifo"}},
		{name: "boundary rates", k: knobs{backend: "sim", faultRate: 1, straggle: 1, policy: "fair"}},
		{name: "chaos rate", k: knobs{backend: "sim", mtbf: 250, seed: 7, policy: "fair"}},
		{name: "mtbf hazard", k: knobs{backend: "sim", mtbf: 250, policy: "fair"}},
		{name: "profiles to distinct files", k: knobs{backend: "sim", policy: "fair", cpuProfile: "cpu.out", memProfile: "mem.out"}},
		{name: "cpu profile alone", k: knobs{backend: "sim", policy: "fair", cpuProfile: "cpu.out"}},
		{name: "mem profile alone", k: knobs{backend: "sim", policy: "fair", memProfile: "mem.out"}},
		{name: "faultrate above 1", k: knobs{faultRate: 1.2, policy: "fair"}, wantErr: "-faultrate"},
		{name: "faultrate negative", k: knobs{faultRate: -0.1, policy: "fair"}, wantErr: "-faultrate"},
		{name: "mem negative", k: knobs{mem: -1, policy: "fair"}, wantErr: "-mem"},
		{name: "straggle above 1", k: knobs{straggle: 1.5, policy: "fair"}, wantErr: "-straggle"},
		{name: "mtbf negative", k: knobs{mtbf: -50, policy: "fair"}, wantErr: "-mtbf"},
		{name: "seed negative", k: knobs{seed: -3, policy: "fair"}, wantErr: "-seed"},
		{name: "tenants negative", k: knobs{tenants: -2, policy: "fair"}, wantErr: "-tenants"},
		{name: "unknown policy", k: knobs{policy: "lottery"}, wantErr: "-policy"},
		{name: "profiles collide", k: knobs{policy: "fair", cpuProfile: "prof.out", memProfile: "prof.out"}, wantErr: "-cpuprofile and -memprofile"},
		{name: "proc backend", k: knobs{backend: "proc", policy: "fair"}},
		{name: "proc backend with workers", k: knobs{backend: "proc", workers: 2, policy: "fair"}},
		{name: "proc chaos soak", k: knobs{backend: "proc", procChaos: true, policy: "fair"}},
		{name: "procchaos without proc", k: knobs{backend: "sim", procChaos: true, policy: "fair"}, wantErr: "-procchaos"},
		{name: "unknown backend", k: knobs{backend: "spark", policy: "fair"}, wantErr: "-backend"},
		{name: "empty backend", k: knobs{policy: "fair"}, wantErr: "-backend"},
		{name: "workers negative", k: knobs{backend: "proc", workers: -1, policy: "fair"}, wantErr: "-workers"},
		{name: "workers without proc", k: knobs{backend: "sim", workers: 2, policy: "fair"}, wantErr: "-workers"},
		{name: "proc with explain", k: knobs{backend: "proc", explain: "chaos", policy: "fair"}, wantErr: "-backend proc"},
		{name: "proc with tenants", k: knobs{backend: "proc", tenants: 2, policy: "fair"}, wantErr: "-tenants"},
		{name: "skew exponent", k: knobs{backend: "sim", skew: 1.5, policy: "fair"}},
		{name: "skew exactly 1", k: knobs{skew: 1, policy: "fair"}, wantErr: "-skew"},
		{name: "skew negative", k: knobs{skew: -0.5, policy: "fair"}, wantErr: "-skew"},
		{name: "skew below 1", k: knobs{skew: 0.8, policy: "fair"}, wantErr: "-skew"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateFlags(c.k)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error mentioning %q, got nil", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}
