package experiments

import (
	"encoding/json"
	"testing"
)

// TestRunRTFReport pins the -rtf report: a 20 MHz float Session
// measurement, persisted under -metrics with exactly the Session fields.
func TestRunRTFReport(t *testing.T) {
	rep := RunRTF(1)
	if rep.BW != "20MHz" {
		t.Errorf("BW = %q, want 20MHz", rep.BW)
	}
	if rep.SampleRateHz != 122.88e6 {
		t.Errorf("SampleRateHz = %g, want 122.88e6", rep.SampleRateHz)
	}
	if !(rep.SessionFloatRTF > 0) {
		t.Errorf("SessionFloatRTF = %g, want > 0", rep.SessionFloatRTF)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(b, &obj); err != nil {
		t.Fatal(err)
	}
	if _, ok := obj["session_float_rtf"]; !ok {
		t.Errorf("report JSON %s lacks session_float_rtf", b)
	}
	for _, k := range []string{"rtf", "subframes", "wall_seconds", "checksum"} {
		if _, ok := obj[k]; ok {
			t.Errorf("report JSON %s still carries the streamer key %q", b, k)
		}
	}
}
