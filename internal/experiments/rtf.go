package experiments

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"lscatter/internal/channel"
	"lscatter/internal/enodeb"
	"lscatter/internal/ltephy"
	"lscatter/internal/rng"
	"lscatter/internal/simlink"
	"lscatter/internal/tag"
)

// Real-time-factor (RTF) measurement: simulated seconds produced per
// wall-clock second by the float Session, on one goroutine, at 20 MHz.
// docs/PERFORMANCE.md defines the methodology and records the trajectory.

const (
	// rtfBW is the measured bandwidth, the widest LTE carrier.
	rtfBW = ltephy.BW20
	// rtfSubframes is the timed Session window in subframes (ms).
	rtfSubframes = 10
)

// RTFReport is the JSON-facing result of one RTF run.
type RTFReport struct {
	// BW names the measured bandwidth.
	BW string `json:"bw"`
	// SampleRateHz is the oversampled simulation rate.
	SampleRateHz float64 `json:"sample_rate_hz"`
	// SessionFloatRTF is simulated seconds per wall-clock second for the
	// full Session (source generation, modulation, paths, combine, noise).
	SessionFloatRTF float64 `json:"session_float_rtf"`
	// GoVersion and CPU record the machine the numbers were taken on.
	GoVersion string `json:"go_version"`
	CPU       string `json:"cpu,omitempty"`
}

// Render formats the report for the terminal.
func (r *RTFReport) Render() string {
	return fmt.Sprintf("RTF @ %s (%.2f MS/s, one goroutine): session %.2fx real time  (%s, %s)",
		r.BW, r.SampleRateHz/1e6, r.SessionFloatRTF, r.GoVersion, r.CPU)
}

// cpuModel best-effort reads the CPU model name (linux); empty elsewhere.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

// rtfSession builds the canonical RTF scenario: a default eNodeB, one DSB
// tag at the default 6 dB reflection loss, fixed -50/-70 dB direct and tag
// path gains, and a noise floor that keeps the noise add in the loop. It
// has no sink: the measurement is the transport chain itself.
func rtfSession(seed uint64) *simlink.Session {
	p := ltephy.DefaultParams(rtfBW)
	occupied := float64(rtfBW.Subcarriers()) * ltephy.SubcarrierSpacing
	noise := channel.NoiseFloorW(occupied, 7) * p.SampleRate() / occupied
	mod := tag.NewModulator(tag.ModConfig{Params: p, Mode: tag.DSB, ReflectionLossDB: 6})
	payload := make([]byte, 14*p.UsefulModulationUnits())
	return &simlink.Session{
		Source: enodeb.New(enodeb.DefaultConfig(rtfBW)),
		Direct: simlink.GainDB(-50),
		Tags: []*simlink.Tag{{
			Mod:  mod,
			Path: simlink.GainDB(-70),
			Feed: func(int, *tag.Modulator) { mod.QueueBits(payload) },
		}},
		Link: channel.NewLink(rng.New(seed).Fork(1), noise),
	}
}

// RunRTF measures the Session's real-time factor on the calling goroutine.
// One warm-up subframe fills the waveform cache; the timed window follows.
func RunRTF(seed uint64) *RTFReport {
	sess := rtfSession(seed)
	sess.Run(1)
	start := time.Now()
	sess.Run(rtfSubframes)
	wall := time.Since(start).Seconds()
	return &RTFReport{
		BW:              rtfBW.String(),
		SampleRateHz:    ltephy.DefaultParams(rtfBW).SampleRate(),
		SessionFloatRTF: rtfSubframes * ltephy.SubframeDuration / wall,
		GoVersion:       runtime.Version(),
		CPU:             cpuModel(),
	}
}
