package strategy

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"p3/internal/core"
	"p3/internal/model"
	"p3/internal/zoo"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"baseline", "tensorflow", "wfbp", "slicing", "p3", "asgd", "tictac", "credit-adaptive"} {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if s.Name == "" {
			t.Fatalf("ByName(%q) has empty name", name)
		}
	}
	if s, _ := ByName("tf"); s.Name != "tensorflow" {
		t.Error("tf alias broken")
	}
	if s, _ := ByName("poseidon"); s.Name != "wfbp" {
		t.Error("poseidon alias broken")
	}
	if s, _ := ByName("adaptive"); s.Name != "credit-adaptive" {
		t.Error("adaptive alias broken")
	}
	if _, err := ByName("nccl"); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestStrategySemantics(t *testing.T) {
	cases := []struct {
		s     Strategy
		gran  Granularity
		sched string
		pull  PullMode
		async bool
	}{
		{Baseline(), Shards, "fifo", NotifyPull, false},
		{TFStyle(), Shards, "fifo", DeferredPull, false},
		{WFBP(), Shards, "fifo", Immediate, false},
		{SlicingOnly(0), Slices, "fifo", Immediate, false},
		{P3(0), Slices, "p3", Immediate, false},
		{ASGDStrategy(), Shards, "fifo", Immediate, true},
		{TicTac(0), Slices, "tictac", Immediate, false},
		{CreditAdaptive(0), Slices, "credit-adaptive", Immediate, false},
	}
	for _, c := range cases {
		if c.s.Granularity != c.gran || c.s.Sched != c.sched || c.s.Pull != c.pull || c.s.Async != c.async {
			t.Errorf("%s: unexpected semantics %+v", c.s.Name, c.s)
		}
		if c.s.Discipline() != c.sched {
			t.Errorf("%s: Discipline = %q", c.s.Name, c.s.Discipline())
		}
	}
}

func TestWithSched(t *testing.T) {
	s, err := P3(0).WithSched("credit:65536")
	if err != nil {
		t.Fatal(err)
	}
	if s.Discipline() != "credit:65536" || s.Granularity != Slices {
		t.Fatalf("WithSched result %+v", s)
	}
	if _, err := Baseline().WithSched("bogus"); err == nil {
		t.Fatal("unknown discipline accepted")
	}
	if (Strategy{}).Discipline() != "fifo" {
		t.Fatal("zero-value Discipline should default to fifo")
	}
}

func TestPartitionDispatch(t *testing.T) {
	m := zoo.ResNet50()

	p3Plan := P3(10_000).Partition(m, 4)
	if err := p3Plan.Validate(m); err != nil {
		t.Fatal(err)
	}
	for _, c := range p3Plan.Chunks {
		if c.Params > 10_000 {
			t.Fatalf("P3 chunk bigger than requested slice: %v", c)
		}
	}

	basePlan := Baseline().Partition(m, 4)
	if err := basePlan.Validate(m); err != nil {
		t.Fatal(err)
	}
	// KVStore default threshold is 1M: ResNet-50 has layers above it
	// (2048x1000 fc and 2.36M conv) which must be split.
	var split bool
	for l, ids := range basePlan.ByLayer {
		if m.Layers[l].Params >= core.DefaultShardThreshold && len(ids) == 4 {
			split = true
		}
		if m.Layers[l].Params < core.DefaultShardThreshold && len(ids) != 1 {
			t.Fatalf("small layer %d split into %d", l, len(ids))
		}
	}
	if !split {
		t.Fatal("no big layer was split across servers")
	}

	if got, want := p3Plan.NumChunks(), basePlan.NumChunks(); got <= want {
		t.Fatalf("slicing produced %d chunks <= sharding's %d", got, want)
	}
}

func TestStringer(t *testing.T) {
	if P3(0).String() != "p3" {
		t.Fatal("String() broken")
	}
}

// TestComputeProfile checks the profile the tictac ranker consumes:
// deadlines are the cumulative forward times of the model's own Timing
// (non-decreasing, starting at zero), layer byte totals match the tensors,
// and transfer estimation follows the requested wire rate.
func TestComputeProfile(t *testing.T) {
	m := zoo.ResNet50()
	prof := ComputeProfile(m, 10)
	if len(prof.NeedAtNs) != len(m.Layers) || len(prof.LayerBytes) != len(m.Layers) {
		t.Fatalf("profile covers %d/%d layers, model has %d",
			len(prof.NeedAtNs), len(prof.LayerBytes), len(m.Layers))
	}
	if prof.NeedAtNs[0] != 0 {
		t.Fatalf("first layer's deadline %d, want 0 (consumed at forward start)", prof.NeedAtNs[0])
	}
	tm := model.NewTiming(m)
	var acc int64
	for i := range m.Layers {
		if prof.NeedAtNs[i] != acc {
			t.Fatalf("layer %d deadline %d, want cumulative forward %d", i, prof.NeedAtNs[i], acc)
		}
		acc += int64(tm.Fwd[i])
		if prof.LayerBytes[i] != m.Layers[i].Bytes() {
			t.Fatalf("layer %d bytes %d, want %d", i, prof.LayerBytes[i], m.Layers[i].Bytes())
		}
		if i > 0 && prof.NeedAtNs[i] < prof.NeedAtNs[i-1] {
			t.Fatalf("deadlines not monotone at layer %d", i)
		}
	}
	// 1 MB at 10 Gbps is 0.8 ms.
	if got := prof.TxNs(1_000_000); got != 800_000 {
		t.Fatalf("TxNs(1MB)@10Gbps = %d ns, want 800000", got)
	}
}

// FuzzReadStallFile holds the stall-file reader to two rules on arbitrary
// input: it never panics nor grows its slice past the file's lines (a
// one-line file naming layer 1000000000 once asked for 8 GB), and whatever
// it accepts survives WriteStallFile and ReadStallFile unchanged.
func FuzzReadStallFile(f *testing.F) {
	f.Add([]byte("0\t5\n1\t0\n2\t-3\n"))
	f.Add([]byte("1\t7\n0\t2"))
	f.Add([]byte("1000000000\t0"))
	f.Add([]byte("0\t1\n\n  \n0\t2\n"))
	f.Add([]byte("-1\t4\n"))
	path := filepath.Join(f.TempDir(), "stalls")
	f.Fuzz(func(t *testing.T, buf []byte) {
		stalls, err := parseStalls(buf)
		if err != nil {
			return
		}
		if len(stalls) > strings.Count(string(buf), "\n")+1 {
			t.Fatalf("%q parsed into %d layers", buf, len(stalls))
		}
		if err := WriteStallFile(path, stalls); err != nil {
			t.Fatal(err)
		}
		if again, err := ReadStallFile(path); err != nil || !reflect.DeepEqual(again, stalls) {
			t.Fatalf("%q: %v round-trips to %v (%v)", buf, stalls, again, err)
		}
	})
}
