package serve

import (
	"strings"
	"testing"

	"lscatter/internal/core"
	"lscatter/internal/ltephy"
	"lscatter/internal/traffic"
)

func decodeValid(t *testing.T, body string) *Spec {
	t.Helper()
	s, err := DecodeSpec(strings.NewReader(body))
	if err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	return s
}

func TestSpecDecodeRejects(t *testing.T) {
	cases := []struct {
		name, body string
	}{
		{"empty", ""},
		{"not json", "venue=home"},
		{"unknown field", `{"venu":"home"}`},
		{"trailing data", `{"venue":"home"} {"venue":"mall"}`},
		{"wrong type", `{"tags":"many"}`},
		{"array", `[1,2,3]`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeSpec(strings.NewReader(tc.body)); err == nil {
				t.Fatalf("decode %q succeeded, want error", tc.body)
			}
		})
	}
}

// TestSpecDefaulting pins the zero-vs-absent contract: absent optional
// fields take the documented defaults, explicit zeros are honored as zeros
// (the PR 5 core.Auto lesson, carried to the wire format with pointers).
func TestSpecDefaulting(t *testing.T) {
	cases := []struct {
		name  string
		body  string
		check func(t *testing.T, n *Spec)
	}{
		{
			"all defaults",
			`{}`,
			func(t *testing.T, n *Spec) {
				if n.Venue != "home" || n.Bandwidth != "20MHz" || n.Tags != 1 ||
					n.Traffic != "lte" || n.Mode != "semi-analytic" || n.Lane != "float" ||
					n.Impairment != "off" {
					t.Fatalf("unexpected defaults: %+v", n)
				}
				if *n.TxPowerDBm != 10 || *n.TagLossDB != 4 || *n.Hour != 12 {
					t.Fatalf("pointer defaults: tx=%v loss=%v hour=%v",
						*n.TxPowerDBm, *n.TagLossDB, *n.Hour)
				}
				if *n.MinTagToUEFt != 3 || *n.MaxTagToUEFt != 15 {
					t.Fatalf("distance defaults: %v..%v", *n.MinTagToUEFt, *n.MaxTagToUEFt)
				}
			},
		},
		{
			"explicit zero tx power honored",
			`{"tx_power_dbm":0}`,
			func(t *testing.T, n *Spec) {
				if *n.TxPowerDBm != 0 {
					t.Fatalf("explicit 0 dBm became %v", *n.TxPowerDBm)
				}
				if got := n.Deployment().TxPowerDBm; got != 0 {
					t.Fatalf("deployment config tx power = %v, want 0", got)
				}
			},
		},
		{
			"explicit zero tag loss honored",
			`{"tag_loss_db":0}`,
			func(t *testing.T, n *Spec) {
				if *n.TagLossDB != 0 {
					t.Fatalf("explicit lossless tag became %v dB", *n.TagLossDB)
				}
			},
		},
		{
			"explicit midnight honored",
			`{"hour":0}`,
			func(t *testing.T, n *Spec) {
				if *n.Hour != 0 {
					t.Fatalf("explicit hour 0 became %v", *n.Hour)
				}
			},
		},
		{
			"zero seed honored verbatim",
			`{"seed":0}`,
			func(t *testing.T, n *Spec) {
				if n.Seed != 0 {
					t.Fatalf("seed 0 became %d", n.Seed)
				}
			},
		},
		{
			"venue reach defaults follow venue",
			`{"venue":"outdoor"}`,
			func(t *testing.T, n *Spec) {
				if *n.MaxTagToUEFt != 120 {
					t.Fatalf("outdoor reach default = %v, want 120", *n.MaxTagToUEFt)
				}
			},
		},
		{
			"enums case-insensitive",
			`{"venue":"Mall","mode":"EXACT","bandwidth":"1.4MHz","lane":"FLOAT"}`,
			func(t *testing.T, n *Spec) {
				if n.Venue != "mall" || n.Mode != "exact" || n.Lane != "float" {
					t.Fatalf("case folding failed: %+v", n)
				}
				d := n.Deployment()
				if d.Venue != traffic.Mall || d.Mode != core.Exact || d.BW != ltephy.BW1_4 {
					t.Fatalf("deployment mapping: %+v", d)
				}
			},
		},
		{
			"exact subframes default",
			`{"mode":"exact","bandwidth":"1.4MHz"}`,
			func(t *testing.T, n *Spec) {
				if n.Subframes != 5 {
					t.Fatalf("exact subframes default = %d, want 5", n.Subframes)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := decodeValid(t, tc.body).Normalize()
			if err != nil {
				t.Fatalf("normalize: %v", err)
			}
			tc.check(t, n)
		})
	}
}

func TestSpecValidationRejects(t *testing.T) {
	cases := []struct {
		name, body, wantSub string
	}{
		{"bad venue", `{"venue":"moon"}`, "unknown venue"},
		{"bad bandwidth", `{"bandwidth":"7MHz"}`, "unknown bandwidth"},
		{"bad traffic", `{"traffic":"smoke"}`, "unknown traffic"},
		{"bad mode", `{"mode":"psychic"}`, "unknown mode"},
		{"bad lane", `{"lane":"q31"}`, "unknown lane"},
		{"bad impairment", `{"impairment":"cataclysmic"}`, "unknown impairment"},
		{"negative tags", `{"tags":-1}`, "tags"},
		{"too many tags", `{"tags":100001}`, "service cap"},
		{"exact too many tags", `{"mode":"exact","bandwidth":"1.4MHz","tags":65}`, "exact-mode cap"},
		{"exact too wide", `{"mode":"exact","bandwidth":"20MHz"}`, "exact mode serves"},
		{"exact too long", `{"mode":"exact","bandwidth":"1.4MHz","subframes":51}`, "service cap"},
		{"zero min distance", `{"min_tag_to_ue_ft":0}`, "min_tag_to_ue_ft"},
		{"negative min distance", `{"min_tag_to_ue_ft":-3}`, "min_tag_to_ue_ft"},
		{"max below min", `{"min_tag_to_ue_ft":10,"max_tag_to_ue_ft":5}`, "max_tag_to_ue_ft"},
		{"hour out of range", `{"hour":24}`, "hour"},
		{"negative subframes", `{"subframes":-1}`, "subframes"},
		{"subframes outside exact", `{"subframes":5}`, "exact mode"},
		{"fxp lane no longer served", `{"mode":"exact","bandwidth":"1.4MHz","lane":"FXP"}`, `lane "fxp" is no longer served (want float)`},
		{"impairment outside exact", `{"impairment":"mild"}`, "exact mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeValid(t, tc.body).Normalize()
			if err == nil {
				t.Fatalf("normalize %q succeeded, want error", tc.body)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestSpecHashCanonicalization: spelling a default out explicitly must land
// in the same cache slot as leaving it absent, and any material change must
// not.
func TestSpecHashCanonicalization(t *testing.T) {
	n1, err := decodeValid(t, `{}`).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	n2, err := decodeValid(t, `{"venue":"home","tags":1,"tx_power_dbm":10,"hour":12}`).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n1.Hash() != n2.Hash() {
		t.Fatalf("explicit defaults changed the hash: %s vs %s", n1.Hash(), n2.Hash())
	}
	n3, err := decodeValid(t, `{"tx_power_dbm":0}`).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n3.Hash() == n1.Hash() {
		t.Fatal("explicit 0 dBm hashed equal to the 10 dBm default")
	}
	// Seed is part of the store key, not the spec hash surface — but it
	// lives in the canonical form, so different seeds hash differently too.
	n4, err := decodeValid(t, `{"seed":7}`).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n4.Hash() == n1.Hash() {
		t.Fatal("seed change did not change the canonical hash")
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	n, err := decodeValid(t, `{"venue":"mall","tags":7}`).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	again, err := n.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if string(n.Canonical()) != string(again.Canonical()) {
		t.Fatalf("normalize not idempotent:\n%s\nvs\n%s", n.Canonical(), again.Canonical())
	}
}

// TestSpecHashStable pins the content address of float specs to hashes
// recorded before the fixed-point lane was retired: the canonical form keeps
// "lane":"float", so existing artifact directories still hit.
func TestSpecHashStable(t *testing.T) {
	cases := []struct {
		body, want string
	}{
		{`{}`, "f71cccaec663f15e"},
		{`{"lane":"float"}`, "f71cccaec663f15e"},
		{`{"venue":"home","mode":"exact","bandwidth":"5MHz","subframes":5,"tags":2,"seed":7}`, "1897a7fbfb35be81"},
		{`{"venue":"home","mode":"exact","bandwidth":"5MHz","subframes":5,"tags":2,"seed":7,"lane":"FLOAT"}`, "1897a7fbfb35be81"},
		{`{"venue":"mall","mode":"exact","bandwidth":"1.4MHz","tags":2,"impairment":"mild","seed":3}`, "85403c968e361b35"},
	}
	for _, tc := range cases {
		n, err := decodeValid(t, tc.body).Normalize()
		if err != nil {
			t.Fatalf("normalize %s: %v", tc.body, err)
		}
		if got := n.Hash(); got != tc.want {
			t.Errorf("hash(%s) = %s, want %s", tc.body, got, tc.want)
		}
	}
}
