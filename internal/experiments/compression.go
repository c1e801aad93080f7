package experiments

import (
	"p3/internal/nn"
	"p3/internal/quant"
	"p3/internal/train"
)

// CompressionRow is one mechanism's entry in the compression-family
// comparison.
type CompressionRow struct {
	Mechanism        string
	FinalAcc         float64
	CompressionRatio float64 // dense bits / wire bits (1 = full gradients)
}

// ExtCompression runs the related-work compression family (Section 6 of
// the paper) against dense exchange on the substitute task: QSGD (4-level),
// TernGrad and 1-bit SGD with error feedback, plus DGC. P3's pitch is that
// it needs none of these trade-offs — dense (its arithmetic) anchors the
// accuracy column while the codecs buy bandwidth with accuracy risk.
func ExtCompression(o Options) []CompressionRow {
	tr, val, netCfg, epochs := convergenceTask(o)
	var sizes []int
	for _, p := range nn.NewResidualMLP(netCfg).Params() {
		sizes = append(sizes, len(p.Data))
	}

	var rows []CompressionRow
	// codec, for the Quantized rows, builds worker w's codec (codecs like
	// 1-bit SGD carry per-worker error state).
	runOne := func(name string, mode train.Mode, codec func(w int) quant.Codec) {
		cfg := trainConfig(o, netCfg, epochs, stepLR(0.06, epochs), mode)
		if codec != nil {
			for w := range cfg.Workers {
				cfg.Codecs = append(cfg.Codecs, codec(w))
			}
		}
		h, _ := train.Run(cfg, tr, val)
		ratio := h.CompressionRatio
		switch mode {
		case train.Dense:
			ratio = 1
		case train.DGC:
			// top-k at sparsity s: (value+index) per kept coordinate.
			ratio = 32.0 / ((1 - cfg.DGCSparsity) * 64)
		}
		rows = append(rows, CompressionRow{Mechanism: name, FinalAcc: h.FinalValAcc, CompressionRatio: ratio})
	}

	runOne("dense (baseline == p3)", train.Dense, nil)
	runOne("dgc@99.9%", train.DGC, nil)
	runOne("qsgd-4", train.Quantized, func(w int) quant.Codec { return quant.NewQSGD(4, int64(100+w)) })
	runOne("terngrad", train.Quantized, func(w int) quant.Codec { return quant.NewTernGrad(int64(200 + w)) })
	runOne("1bit-sgd", train.Quantized, func(int) quant.Codec { return quant.NewOneBit(sizes) })
	return rows
}

// compressionCols print the comparison.
var compressionCols = []column[CompressionRow]{
	{"mechanism", "%s", func(r CompressionRow) any { return r.Mechanism }},
	{"final_acc", "%.4f", func(r CompressionRow) any { return r.FinalAcc }},
	{"compression_x", "%.1f", func(r CompressionRow) any { return r.CompressionRatio }},
}
