package cluster

import (
	"slices"
	"testing"

	"p3/internal/strategy"
	"p3/internal/trace"
	"p3/internal/zoo"
)

// TestCalibratedTicTacNoSlowerOnZoo pins the stall-feedback loop's value
// claim: rebuilding the tictac profile from a prior run's measured
// consumption stalls (the two-pass calibrated mode) is never slower than
// the static FLOP-derived profile, on every zoo model at the bottleneck
// bandwidth where ordering dominates. The simulator is deterministic, so
// these are exact comparisons, not statistics.
func TestCalibratedTicTacNoSlowerOnZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo calibration sweep in -short mode")
	}
	for _, name := range []string{"resnet50", "inception3", "vgg19", "sockeye", "resnet110"} {
		static, cal := RunCalibrated(Config{
			Model: zoo.ByName(name), Machines: 4, Strategy: strategy.TicTac(0),
			BandwidthGbps: 1.5, WarmupIters: 1, MeasureIters: 3, Seed: 1,
		})
		if cal.MeanIterTime > static.MeanIterTime {
			t.Errorf("%s: calibrated tictac %.3f ms/iter slower than static %.3f ms/iter",
				name, cal.MeanIterTime.Millis(), static.MeanIterTime.Millis())
		}
	}
}

// TestCalibrationFeedbackBoundedByDamping pins the sweep's second finding
// at the inversion scale: stall feedback under STRICT tictac diverges at 64
// machines (stretching a starved layer's measured deadline makes it still
// less urgent, which starves it harder), while the same feedback under the
// damped rank — which bounds any class's deferral — converges and beats
// both its own static pass and fifo.
func TestCalibrationFeedbackBoundedByDamping(t *testing.T) {
	if testing.Short() {
		t.Skip("64-machine calibration runs in -short mode")
	}
	if raceEnabled {
		t.Skip("64-machine calibration under -race (covered by the dedicated non-race CI step)")
	}
	cfg := func(sched string) Config {
		st, err := strategy.SlicingOnly(0).WithSched(sched)
		if err != nil {
			t.Fatal(err)
		}
		st.Name = "sliced+" + sched
		return Config{
			Model: zoo.ByName("resnet50"), Machines: 64, Strategy: st,
			BandwidthGbps: 1.5, WarmupIters: 1, MeasureIters: 2, Seed: 1,
		}
	}
	dampedStatic, dampedCal := RunCalibrated(cfg("damped:tictac"))
	if dampedCal.MeanIterTime > dampedStatic.MeanIterTime {
		t.Errorf("damped:tictac calibration diverged at 64 machines: %.2f ms static -> %.2f ms calibrated",
			dampedStatic.MeanIterTime.Millis(), dampedCal.MeanIterTime.Millis())
	}
	fifo := runScale(t, 64, "fifo")
	if dampedCal.MeanIterTime > fifo.MeanIterTime {
		t.Errorf("calibrated damped:tictac %.2f ms above fifo %.2f ms at 64 machines",
			dampedCal.MeanIterTime.Millis(), fifo.MeanIterTime.Millis())
	}
}

// TestRunCalibratedRecordsOnePass: RunCalibrated's recorder holds the
// calibrated pass alone — the series a plain Run on the calibrated profile
// records — not the two passes' bytes summed into one trace.
func TestRunCalibratedRecordsOnePass(t *testing.T) {
	cfg := Config{
		Model: zoo.ByName("resnet110"), Machines: 4, Strategy: strategy.TicTac(0),
		BandwidthGbps: 4, WarmupIters: 1, MeasureIters: 1, Seed: 1,
		Recorder: trace.NewRecorder(4, 0),
	}
	static, _ := RunCalibrated(cfg)
	plain := cfg
	plain.Recorder = trace.NewRecorder(4, 0)
	plain.Profile = strategy.CalibrateProfile(cfg.Model, cfg.BandwidthGbps, static.MeanLayerStalls())
	Run(plain)
	for m := range cfg.Machines {
		for _, d := range []trace.Dir{trace.Out, trace.In} {
			if got, want := cfg.Recorder.Series(m, d), plain.Recorder.Series(m, d); !slices.Equal(got, want) {
				t.Errorf("machine %d %v: RunCalibrated recorded %.0f B, the calibrated pass alone %.0f B",
					m, d, cfg.Recorder.TotalBytes(m, d), plain.Recorder.TotalBytes(m, d))
			}
		}
	}
}
