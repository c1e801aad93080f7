// Package strategy defines the parameter-synchronization mechanisms the
// paper compares. A strategy is a declarative description — partition
// granularity, queue discipline, and pull protocol — interpreted by the
// cluster simulator and by the TCP parameter server.
//
// Transmission order is not an enum here: the Sched field names a queue
// discipline in the internal/sched registry ("fifo", "p3", "rr",
// "smallest", "credit[:bytes]", ...), and every scheduling site — the
// simulator's NIC egress queues and endpoint processing pools, and the TCP
// transport's send/receive queues — resolves that name to a fresh
// discipline instance. The named strategies below are thin presets over
// that registry; any strategy can be re-run under any discipline by
// overriding Sched (the -sched flag of cmd/p3sim does exactly this).
//
// The preset mechanisms:
//
//   - Baseline: MXNet KVStore (Section 4.1). Layer-granularity shards,
//     fifo transmission in gradient-generation order, and the explicit
//     notify-then-pull protocol (a worker pulls a layer only after being
//     notified that all of its shards updated).
//   - TFStyle: TensorFlow's graph-based parameter server (Section 2 and
//     Appendix B.1): pushes during backprop, but pull requests are not
//     issued until the next iteration's graph execution starts.
//   - WFBP: Poseidon-style wait-free backpropagation (Zhang et al. 2017):
//     layer granularity, fifo, with updates returned immediately (no
//     notify/pull round trip).
//   - SlicingOnly: P3's parameter slicing alone (the "Slicing" series of
//     Figure 7): fixed-size slices, immediate broadcast, but fifo order.
//   - P3: slicing + the p3 priority discipline on both the worker and
//     server sides + immediate broadcast (Section 4.2).
package strategy

import (
	"fmt"
	"os"
	"strings"

	"p3/internal/core"
	"p3/internal/model"
	"p3/internal/sched"
	"p3/internal/sim"
)

// Granularity selects the partitioning scheme.
type Granularity int

const (
	// Shards uses KVStore's layer-granularity placement (split only tensors
	// over the threshold, one shard per server).
	Shards Granularity = iota
	// Slices uses P3's fixed-maximum-size parameter slicing.
	Slices
)

// PullMode selects how updated parameters travel back to workers.
type PullMode int

const (
	// NotifyPull: the server notifies workers per updated shard; a worker
	// requests the data only after every shard of a layer is notified
	// (MXNet semantics, Section 4.1/4.2).
	NotifyPull PullMode = iota
	// Immediate: the server broadcasts updated chunks to all workers as
	// soon as aggregation completes (P3's modification, Section 4.2).
	Immediate
	// DeferredPull: workers request all parameters at the start of the next
	// iteration (TensorFlow semantics, Section 2).
	DeferredPull
)

// Strategy describes a synchronization mechanism.
type Strategy struct {
	Name        string
	Granularity Granularity
	// MaxSliceParams caps slice size when Granularity == Slices
	// (0 = core.DefaultMaxSliceParams).
	MaxSliceParams int64
	// ShardThreshold is KVStore's split threshold when Granularity == Shards
	// (0 = core.DefaultShardThreshold).
	ShardThreshold int64
	// Sched names the queue discipline (sched registry) applied to every
	// scheduling site: NIC egress queues, endpoint processing pools, and the
	// TCP transport's send/receive queues. Empty means "fifo", transmitting
	// chunks in gradient-generation order (backprop order: last layer
	// first); "p3" transmits the most urgent ready chunk first (forward
	// order), preempting lower-priority traffic at chunk granularity.
	Sched string
	Pull  PullMode
	// Async selects asynchronous SGD (Appendix B.2): the server applies and
	// returns each worker's push immediately instead of waiting for all
	// workers, so no worker ever blocks on another.
	Async bool
}

// Baseline returns the MXNet KVStore baseline.
func Baseline() Strategy {
	return Strategy{Name: "baseline", Granularity: Shards, Sched: "fifo", Pull: NotifyPull}
}

// TFStyle returns the TensorFlow-like strategy (Appendix B.1, Figure 13).
func TFStyle() Strategy {
	return Strategy{Name: "tensorflow", Granularity: Shards, Sched: "fifo", Pull: DeferredPull}
}

// WFBP returns the Poseidon-like wait-free-backprop strategy (Figure 14).
func WFBP() Strategy {
	return Strategy{Name: "wfbp", Granularity: Shards, Sched: "fifo", Pull: Immediate}
}

// SlicingOnly returns parameter slicing without priority (the "Slicing"
// series of Figure 7). maxSlice 0 selects the paper's 50,000-parameter
// default.
func SlicingOnly(maxSlice int64) Strategy {
	return Strategy{Name: "slicing", Granularity: Slices, MaxSliceParams: maxSlice, Sched: "fifo", Pull: Immediate}
}

// P3 returns the full mechanism. maxSlice 0 selects the paper's
// 50,000-parameter default.
func P3(maxSlice int64) Strategy {
	return Strategy{Name: "p3", Granularity: Slices, MaxSliceParams: maxSlice, Sched: "p3", Pull: Immediate}
}

// ASGDStrategy returns MXNet's asynchronous-SGD wire behaviour (Appendix
// B.2): layer-granularity shards, fifo, per-worker immediate update.
func ASGDStrategy() Strategy {
	return Strategy{Name: "asgd", Granularity: Shards, Sched: "fifo", Pull: Immediate, Async: true}
}

// TicTac returns P3's slicing and immediate broadcast under the tictac
// discipline: transfers ranked by critical-path slack from the model's
// timing profile instead of raw layer index. maxSlice 0 selects the paper's
// 50,000-parameter default.
func TicTac(maxSlice int64) Strategy {
	return Strategy{Name: "tictac", Granularity: Slices, MaxSliceParams: maxSlice, Sched: "tictac", Pull: Immediate}
}

// CreditAdaptive returns P3's slicing and immediate broadcast under
// per-destination AIMD-adapted credit windows. maxSlice 0 selects the
// paper's 50,000-parameter default.
func CreditAdaptive(maxSlice int64) Strategy {
	return Strategy{Name: "credit-adaptive", Granularity: Slices, MaxSliceParams: maxSlice, Sched: "credit-adaptive", Pull: Immediate}
}

// ByName maps the names used by the CLI tools to strategies.
func ByName(name string) (Strategy, error) {
	switch name {
	case "baseline":
		return Baseline(), nil
	case "tensorflow", "tf":
		return TFStyle(), nil
	case "wfbp", "poseidon":
		return WFBP(), nil
	case "slicing":
		return SlicingOnly(0), nil
	case "p3":
		return P3(0), nil
	case "asgd":
		return ASGDStrategy(), nil
	case "tictac":
		return TicTac(0), nil
	case "credit-adaptive", "adaptive":
		return CreditAdaptive(0), nil
	}
	return Strategy{}, fmt.Errorf("unknown strategy %q (want baseline|tensorflow|wfbp|slicing|p3|asgd|tictac|credit-adaptive)", name)
}

// Partition applies the strategy's granularity to m for the given number of
// servers.
func (s Strategy) Partition(m *model.Model, servers int) *core.Plan {
	switch s.Granularity {
	case Slices:
		return core.PartitionSlices(m, s.MaxSliceParams, servers)
	default:
		return core.PartitionShards(m, s.ShardThreshold, servers)
	}
}

// Discipline returns the strategy's effective scheduler name ("fifo" when
// Sched is empty), suitable for sched.ByName.
func (s Strategy) Discipline() string {
	if s.Sched == "" {
		return "fifo"
	}
	return s.Sched
}

// ComputeProfile derives the sched.Profile that model-aware disciplines
// (tictac) consume for model m at an estimated wire rate of gbps:
// NeedAtNs[l] is the forward compute time preceding layer l's consumption,
// taken from the same model.Timing the simulators run on, so the ranker's
// notion of "when does the forward pass block on this layer" matches the
// clock it is scheduling against. gbps <= 0 disables transfer-time
// estimation (slack reduces to the consumption deadline).
func ComputeProfile(m *model.Model, gbps float64) *sched.Profile {
	return CalibrateProfile(m, gbps, nil)
}

// CalibrateProfile rebuilds the sched.Profile from measured stalls instead
// of static timing: stalls[l] is the observed mean per-iteration time the
// forward pass spent blocked at layer l (cluster/ring Result.
// MeanLayerStalls). The static profile assumes the forward pass reaches
// layer l after exactly the preceding layers' compute; in a measured
// iteration it reaches l only after their compute AND their stalls, so each
// observed stall pushes every later layer's consumption deadline out by the
// same amount. Model-aware disciplines ranking against the calibrated
// deadlines therefore spend their urgency where the measured iteration
// actually blocked — a stalling layer keeps its deadline while everything
// after it gains slack — which is the closed-loop form of TicTac's
// observed-timing priorities. Extra stall entries beyond the model's layers
// are ignored; missing ones count as zero; a nil stalls slice is the static
// profile (ComputeProfile).
func CalibrateProfile(m *model.Model, gbps float64, stalls []sim.Time) *sched.Profile {
	t := model.NewTiming(m)
	need := make([]int64, len(t.Fwd))
	bytes := make([]int64, len(m.Layers))
	var acc int64
	for i, f := range t.Fwd {
		need[i] = acc
		acc += int64(f)
		if i < len(stalls) && stalls[i] > 0 {
			acc += int64(stalls[i])
		}
		bytes[i] = m.Layers[i].Bytes()
	}
	return &sched.Profile{NeedAtNs: need, LayerBytes: bytes, GbpsEstimate: gbps}
}

// MeanStalls divides cumulative per-layer stalls by the iteration count
// they were accumulated over — the normalization both simulators' Result.
// MeanLayerStalls apply before feeding CalibrateProfile. Returns nil when
// iters is not positive.
func MeanStalls(stalls []sim.Time, iters int) []sim.Time {
	if iters <= 0 {
		return nil
	}
	out := make([]sim.Time, len(stalls))
	for i, s := range stalls {
		out[i] = s / sim.Time(iters)
	}
	return out
}

// WriteStallFile serializes a measured per-layer stall profile (mean
// nanoseconds per iteration, one layer per line) so a later process — a
// p3server/p3worker pass, or a re-run of p3sim — can run calibrated against
// it. The format is trivially diffable: "<layer>\t<stall_ns>\n".
func WriteStallFile(path string, stalls []sim.Time) error {
	var b strings.Builder
	for l, s := range stalls {
		fmt.Fprintf(&b, "%d\t%d\n", l, int64(s))
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// ReadStallFile parses a WriteStallFile artifact back into per-layer mean
// stalls.
func ReadStallFile(path string) ([]sim.Time, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	stalls, err := parseStalls(buf)
	if err != nil {
		return nil, fmt.Errorf("strategy: stall file %s %w", path, err)
	}
	return stalls, nil
}

// parseStalls parses a stall file's contents. A WriteStallFile artifact is
// dense, one line per layer 0..L-1, so a layer index at or past the file's
// line count is rejected: the slice never grows past the file.
func parseStalls(buf []byte) ([]sim.Time, error) {
	lines := strings.Split(strings.TrimRight(string(buf), "\n"), "\n")
	var stalls []sim.Time
	for ln, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var layer int
		var ns int64
		if _, err := fmt.Sscanf(line, "%d\t%d", &layer, &ns); err != nil || layer < 0 || layer >= len(lines) {
			return nil, fmt.Errorf("line %d: %q", ln+1, line)
		}
		for len(stalls) <= layer {
			stalls = append(stalls, 0)
		}
		stalls[layer] = sim.Time(ns)
	}
	return stalls, nil
}

// WithSched returns a copy of s running under the named discipline — the
// hook behind the -sched knob of the CLI tools. It validates the name
// against the sched registry.
func (s Strategy) WithSched(name string) (Strategy, error) {
	if _, err := sched.ByName(name); err != nil {
		return Strategy{}, err
	}
	out := s
	out.Sched = name
	return out, nil
}

func (s Strategy) String() string { return s.Name }
