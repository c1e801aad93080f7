package cluster

import (
	"reflect"
	"testing"
)

// TestEngineResetDeterministic pins the construct → run → construct → run
// contract that the maporder analyzer guards statically: every run starts
// from a fresh engine and rebuilds every structure (per-server parked-pull
// maps, processing pools, aggregator state, fault schedules), and each must
// be repopulated in a deterministic order, so three consecutive Runs of one
// config are bit-identical. A single unsorted map walk anywhere in
// construction or scheduling would make a later run diverge.
func TestEngineResetDeterministic(t *testing.T) {
	for _, sched := range []string{"p3", "credit"} {
		t.Run(sched, func(t *testing.T) {
			cfg := shardedCfg(t, 8, sched)
			cfg.Servers = 4
			want := Run(cfg)
			for i := 2; i <= 3; i++ {
				if got := Run(cfg); !reflect.DeepEqual(got, want) {
					t.Errorf("run %d diverges from run 1:\n got %+v\nwant %+v", i, got, want)
				}
			}
		})
	}
}
