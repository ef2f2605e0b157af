package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"provcompress/internal/core"
	"provcompress/internal/provserve"
)

func TestParseTenants(t *testing.T) {
	got, err := parseTenants(" acme=100:20:8, free=5 ,unlimited=")
	if err != nil {
		t.Fatal(err)
	}
	want := []provserve.TenantConfig{
		{Name: "acme", QPS: 100, Burst: 20, MaxInflight: 8},
		{Name: "free", QPS: 5},
		{Name: "unlimited"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseTenants = %+v, want %+v", got, want)
	}

	if got, err := parseTenants(""); err != nil || got != nil {
		t.Fatalf("empty spec = %+v, %v; want nil, nil", got, err)
	}
	for _, bad := range []string{"noequals", "=5", "a=1:2:3:4", "a=-1", "a=x",
		"a=NaN", "a=Inf", "a=1:1e300", "a=1:1:1e300", "a=1:2.5", "a=1:-2", "a=1:1:-1"} {
		if _, err := parseTenants(bad); err == nil {
			t.Errorf("parseTenants(%q) accepted a bad spec", bad)
		}
	}
}

func TestSplitList(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{" , ,", nil},
		{"advanced", []string{"advanced"}},
		{" n8 ,n9,, n8 ", []string{"n8", "n9"}},
		{"basic,advanced,basic,exspan", []string{"basic", "advanced", "exspan"}},
	} {
		if got := splitList(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitList(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestBootRefuses checks that a bad bring-up flag or scheme fails the boot
// with an error naming the offending value, before any node starts.
func TestBootRefuses(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		scheme string
		want   string
	}{
		{[]string{"-nodes", "1"}, core.SchemeAdvanced, "have 1"},
		{[]string{"-fsync", "bogus"}, core.SchemeAdvanced, `"bogus"`},
		{[]string{"-app", "bogus"}, core.SchemeAdvanced, `"bogus"`},
		{nil, "bogus", `"bogus"`},
	} {
		fs := flag.NewFlagSet("provd", flag.ContinueOnError)
		f := registerBoot(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		c, err := f.boot(tc.scheme, nil)
		if err == nil {
			c.Close()
			t.Errorf("boot with %v succeeded", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("boot with %v: error %q does not name %s", tc.args, err, tc.want)
		}
	}
}
