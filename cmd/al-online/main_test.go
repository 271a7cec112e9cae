package main

import (
	"strings"
	"testing"

	"alamr/internal/engine"
)

func validOptions() options {
	return options{policy: "rgma", n: 25, refNx: 64, retries: 3}
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*options)
		wantErr string // substring; "" means valid
	}{
		{"defaults", func(o *options) {}, ""},
		{"zero experiments ok", func(o *options) { o.n = 0 }, ""},
		{"fault cocktail ok", func(o *options) { o.pTransient = 0.3; o.pCorrupt = 0.1; o.rssLimit = 1; o.wallLimit = 60 }, ""},
		{"policy aliases ok", func(o *options) { o.policy = "UNIFORM" }, ""},
		{"spec file skips flag checks", func(o *options) { o.spec = "campaign.json"; o.n = -5 }, ""},
		{"negative n", func(o *options) { o.n = -1 }, "-n must be non-negative"},
		{"negative budget", func(o *options) { o.budget = -0.5 }, "-budget must be non-negative"},
		{"negative memlimit", func(o *options) { o.memLimit = -2 }, "-memlimit must be non-negative"},
		{"zero refnx", func(o *options) { o.refNx = 0 }, "-refnx must be positive"},
		{"zero retries", func(o *options) { o.retries = 0 }, "-retries must be at least 1"},
		{"ptransient negative", func(o *options) { o.pTransient = -0.1 }, "-ptransient must be in [0, 1)"},
		{"ptransient one", func(o *options) { o.pTransient = 1 }, "-ptransient must be in [0, 1)"},
		{"pcorrupt one", func(o *options) { o.pCorrupt = 1 }, "-pcorrupt must be in [0, 1)"},
		{"negative rsslimit", func(o *options) { o.rssLimit = -1 }, "-rsslimit must be non-negative"},
		{"negative walllimit", func(o *options) { o.wallLimit = -1 }, "-walllimit must be non-negative"},
		{"unknown policy", func(o *options) { o.policy = "thompson" }, `unknown policy "thompson"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := validOptions()
			tc.mutate(&o)
			err := o.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate() = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"randuniform", "uniform", "maxsigma", "minpred", "randgoodness", "goodness", "rgma", "RGMA"} {
		if p, err := engine.BuildPolicy(engine.PolicySpec{Name: name}); err != nil || p == nil {
			t.Errorf("BuildPolicy(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := engine.BuildPolicy(engine.PolicySpec{Name: "nope"}); err == nil {
		t.Error("BuildPolicy accepted an unknown name")
	}
}
