package experiments

import (
	"fmt"
	"math"
	"strings"

	"gftpvc/internal/hostmodel"
	"gftpvc/internal/stats"
	"gftpvc/internal/textplot"
	"gftpvc/internal/usagestats"
	"gftpvc/internal/workload"
)

// binSeries converts a binned median series to a plot series with x at
// bin midpoints scaled by xScale. Values above yClip are clipped to it
// (the paper's figure axes do the same to the night-spike bin).
func binSeries(name string, marker rune, bins []stats.Bin, meds []float64, xScale, yClip float64) textplot.Series {
	s := textplot.Series{Name: name, Marker: marker}
	for i := range bins {
		y := meds[i]
		if y > yClip {
			y = yClip
		}
		s.X = append(s.X, (bins[i].Lo+bins[i].Hi)/2*xScale)
		s.Y = append(s.Y, y)
	}
	return s
}

// appendPlot renders a chart into b, or notes the failure inline (chart
// rendering must never fail an exhibit).
func appendPlot(b *strings.Builder, title string, series ...textplot.Series) {
	chart, err := textplot.Plot(76, 16, series...)
	if err != nil {
		fmt.Fprintf(b, "\n[chart unavailable: %v]\n", err)
		return
	}
	fmt.Fprintf(b, "\n%s\n%s", title, chart)
}

func init() {
	register("fig1", reading(&anlTransfers, figure1))
	register("fig2", reading(&slacData, figure2))
	register("fig3", reading(&slacData, figure3))
	register("fig4", reading(&slacData, figure4))
	register("fig5", reading(&slacData, figure5))
	register("fig6", reading(&ornlRecords, figure6))
	register("fig7", reading(&anlTransfers, figure7))
	register("fig8", reading(&anlTransfers, figure8))
}

// figure1 reproduces Fig 1: box plots of ANL→NERSC throughput for the four
// endpoint categories, showing the NERSC disk-write bottleneck.
func figure1(ts []workload.ANLTransfer) (Result, error) {
	cats := workload.ANLCategoryThroughputs(ts)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: throughput variance for ANL-to-NERSC transfers (box plots, Mbps)\n\n")
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %10s %10s %9s\n",
		"category", "lo-whisk", "Q1", "median", "Q3", "hi-whisk", "outliers")
	for _, name := range []string{"mem-mem", "mem-disk", "disk-mem", "disk-disk"} {
		bp, err := stats.BoxPlotOf(cats[name])
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "%-12s %10.1f %10.1f %10.1f %10.1f %10.1f %9d\n",
			name, bp.LowerWhisker, bp.Q1, bp.Median, bp.Q3, bp.UpperWhisker, len(bp.Outliers))
	}
	fmt.Fprintln(&b, "\npaper shape: \"the NERSC disk I/O system is a bottleneck because memory-to-disk\nand disk-to-disk transfers show lower median throughput\".")
	return textResult{"fig1", b.String()}, nil
}

// figure2 reproduces Fig 2: SLAC–BNL transfer throughput as a function of
// file size, summarized per size decade (the paper's scatter plot).
func figure2(ds *dataset) (Result, error) {
	decades := []struct {
		lo, hi float64
		label  string
	}{
		{0, 1e6, "<1MB"},
		{1e6, 10e6, "1-10MB"},
		{10e6, 100e6, "10-100MB"},
		{100e6, 1e9, "100MB-1GB"},
		{1e9, 4e9, "1-4GB"},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: throughput of SLAC-BNL transfers vs file size\n\n")
	fmt.Fprintf(&b, "%-12s %10s %12s %12s\n", "size range", "count", "median Mbps", "max Mbps")
	peak, peakSize := 0.0, 0.0
	for _, d := range decades {
		var ths []float64
		for i := range ds.Records {
			if sz := float64(ds.Records[i].SizeBytes); sz >= d.lo && sz < d.hi {
				t := ds.Records[i].ThroughputMbps()
				ths = append(ths, t)
				if t > peak {
					peak, peakSize = t, sz
				}
			}
		}
		if len(ths) == 0 {
			continue
		}
		s := stats.MustSummarize(ths)
		fmt.Fprintf(&b, "%-12s %10d %12.1f %12.1f\n", d.label, s.N, s.Median, s.Max)
	}
	// Scatter of a deterministic sample (every k-th record) with log10
	// size on x, as the paper's Fig 2 axes are logarithmic.
	scatter := textplot.Series{Name: "transfer", Marker: '.'}
	stride := len(ds.Records)/4000 + 1
	for i := 0; i < len(ds.Records); i += stride {
		r := &ds.Records[i]
		scatter.X = append(scatter.X, math.Log10(float64(r.SizeBytes)/1e6))
		scatter.Y = append(scatter.Y, r.ThroughputMbps())
	}
	appendPlot(&b, "throughput (Mbps) vs log10(file size MB):", scatter)
	fmt.Fprintf(&b, "\nmeasured peak: %.2f Gbps at %.1f MB\n", peak/1e3, peakSize/1e6)
	fmt.Fprintln(&b, "paper: \"A peak value of 2.56 Gbps occurred for a transfer of size 355.5 MB.\"")
	return textResult{"fig2", b.String()}, nil
}

// streamGroup returns the (sizeBytes, throughputMbps) pairs of the
// records moved over streams streams, the split Figs 3-5 read, in slices
// of the exact size; each dataset makes it once (see newDataset).
func streamGroup(recs []usagestats.Record, streams int) (g [2][]float64) {
	n := 0
	for i := range recs {
		if recs[i].Streams == streams {
			n++
		}
	}
	g[0], g[1] = make([]float64, 0, n), make([]float64, 0, n)
	for i := range recs {
		if r := &recs[i]; r.Streams == streams {
			g[0] = append(g[0], float64(r.SizeBytes))
			g[1] = append(g[1], r.ThroughputMbps())
		}
	}
	return g
}

// medianSeries computes median throughput per file-size bin.
func medianSeries(keys, vals []float64, lo, hi, w float64) ([]stats.Bin, []float64, error) {
	bins, err := stats.FixedBins(keys, vals, lo, hi, w)
	if err != nil {
		return nil, nil, err
	}
	return bins, stats.MedianPerBin(bins), nil
}

// plateauOf returns the median of the bin medians over the top portion of
// the size range — the plateau level read off the figure.
func plateauOf(meds []float64, fromFrac float64) float64 {
	var tail []float64
	for i := int(fromFrac * float64(len(meds))); i < len(meds); i++ {
		if !math.IsNaN(meds[i]) {
			tail = append(tail, meds[i])
		}
	}
	if len(tail) == 0 {
		return math.NaN()
	}
	m, _ := stats.Median(tail)
	return m
}

// kneeOf returns the first bin midpoint (bytes) whose median reaches frac
// of the plateau.
func kneeOf(bins []stats.Bin, meds []float64, plateau, frac float64) float64 {
	for i, m := range meds {
		if !math.IsNaN(m) && m >= frac*plateau {
			return (bins[i].Lo + bins[i].Hi) / 2
		}
	}
	return math.NaN()
}

// streamShape is what Fig 3 is read for: each group's plateau (Mbps)
// over the upper size range, the size (bytes) at which it reaches 90% of
// that plateau, and the 8-stream/1-stream median ratio over the
// 10–50 MB bins.
type streamShape struct {
	Plateau1, Plateau8 float64
	Knee1, Knee8       float64
	SmallFileAdvantage float64
}

// figure3 reproduces Fig 3: median throughput per 1 MB file-size bin for
// 8-stream vs 1-stream transfers in (0, 1 GB].
func figure3(ds *dataset) (Result, error) {
	one, eight := ds.streams()
	bins1, med1, err := medianSeries(one[0], one[1], 0, 1e9, 1e6)
	if err != nil {
		return nil, err
	}
	_, med8, err := medianSeries(eight[0], eight[1], 0, 1e9, 1e6)
	if err != nil {
		return nil, err
	}
	sh := streamShape{Plateau1: plateauOf(med1, 0.7), Plateau8: plateauOf(med8, 0.7)}
	sh.Knee1 = kneeOf(bins1, med1, sh.Plateau1, 0.9)
	sh.Knee8 = kneeOf(bins1, med8, sh.Plateau8, 0.9)
	var r1, r8 []float64
	for mb := 10; mb < 50; mb++ {
		if !math.IsNaN(med1[mb]) && !math.IsNaN(med8[mb]) {
			r1 = append(r1, med1[mb])
			r8 = append(r8, med8[mb])
		}
	}
	if len(r1) > 0 {
		m1, _ := stats.Median(r1)
		m8, _ := stats.Median(r8)
		sh.SmallFileAdvantage = m8 / m1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: median throughput of 8-stream vs 1-stream transfers, sizes (0,1GB], 1MB bins\n\n")
	fmt.Fprintf(&b, "%-12s %14s %14s\n", "size bin", "1-stream Mbps", "8-stream Mbps")
	for _, mb := range []int{5, 20, 50, 100, 146, 200, 302, 400, 575, 800, 999} {
		f := func(meds []float64) string {
			if mb >= len(meds) || math.IsNaN(meds[mb]) {
				return "-"
			}
			return fmt.Sprintf("%.1f", meds[mb])
		}
		fmt.Fprintf(&b, "[%d,%d)MB %14s %14s\n", mb, mb+1, f(med1), f(med8))
	}
	appendPlot(&b, "median throughput (Mbps) vs file size (MB), clipped at 450:",
		binSeries("1-stream", '1', bins1, med1, 1e-6, 450),
		binSeries("8-stream", '8', bins1, med8, 1e-6, 450))
	fmt.Fprintf(&b, "\nplateaus: 1-stream %.0f Mbps, 8-stream %.0f Mbps (paper: ~200 for both)\n", sh.Plateau1, sh.Plateau8)
	fmt.Fprintf(&b, "90%%-plateau knees: 8-stream %.0f MB, 1-stream %.0f MB (paper: ~146 MB and ~575 MB)\n",
		sh.Knee8/1e6, sh.Knee1/1e6)
	fmt.Fprintln(&b, "paper shape: for small files the 8-stream medians sit above the 1-stream\nmedians (slow start); both flatten to the same plateau; a spike appears in\nthe [302,303) MB bin of the 8-stream series.")
	return valued[streamShape]{textResult{"fig3", b.String()}, sh}, nil
}

// dipShape is what Fig 4 is read for: the median of the 8-stream bin
// medians above 1 GB inside the 2.2–3.1 GB dip and outside it (Mbps).
type dipShape struct{ In, Out float64 }

// figure4 reproduces Fig 4: the same comparison out to 4 GB with 100 MB
// bins, including the 2.2–3.1 GB dip in the 8-stream series.
func figure4(ds *dataset) (Result, error) {
	one, eight := ds.streams()
	bins, med1, err := medianSeries(one[0], one[1], 0, 4e9, 100e6)
	if err != nil {
		return nil, err
	}
	_, med8, err := medianSeries(eight[0], eight[1], 0, 4e9, 100e6)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: median throughput of 8-stream vs 1-stream transfers, sizes (0,4GB], 100MB bins\n\n")
	fmt.Fprintf(&b, "%-16s %14s %14s\n", "size bin (GB)", "1-stream Mbps", "8-stream Mbps")
	for i := range bins {
		f := func(meds []float64) string {
			if math.IsNaN(meds[i]) {
				return "-"
			}
			return fmt.Sprintf("%.1f", meds[i])
		}
		if i%4 == 0 || (bins[i].Lo >= 2.2e9 && bins[i].Lo < 3.2e9) {
			fmt.Fprintf(&b, "[%.1f,%.1f) %14s %14s\n", bins[i].Lo/1e9, bins[i].Hi/1e9, f(med1), f(med8))
		}
	}
	// Quantify the dip: 8-stream medians inside vs outside 2.2-3.1 GB.
	var in, out []float64
	for i := range bins {
		if math.IsNaN(med8[i]) || bins[i].Lo < 1e9 {
			continue
		}
		if bins[i].Lo >= 2.2e9 && bins[i].Hi <= 3.1e9 {
			in = append(in, med8[i])
		} else {
			out = append(out, med8[i])
		}
	}
	var dip dipShape
	dip.In, _ = stats.Median(in)
	dip.Out, _ = stats.Median(out)
	appendPlot(&b, "median throughput (Mbps) vs file size (GB), clipped at 450:",
		binSeries("1-stream", '1', bins, med1, 1e-9, 450),
		binSeries("8-stream", '8', bins, med8, 1e-9, 450))
	fmt.Fprintf(&b, "\n8-stream median inside 2.2-3.1GB: %.0f Mbps; outside: %.0f Mbps (paper: ~50%% drop)\n", dip.In, dip.Out)
	fmt.Fprintln(&b, "paper shape: for files larger than 1 GB the two series are roughly equal\n(packet losses are rare), except the 8-stream dip at 2.2-3.1 GB.")
	return valued[dipShape]{textResult{"fig4", b.String()}, dip}, nil
}

// figure5 reproduces Fig 5: the number of observations per file-size bin
// for the two stream groups.
func figure5(ds *dataset) (Result, error) {
	one, eight := ds.streams()
	bins1, err := stats.FixedBins(one[0], one[1], 0, 4e9, 100e6)
	if err != nil {
		return nil, err
	}
	bins8, err := stats.FixedBins(eight[0], eight[1], 0, 4e9, 100e6)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: number of observations per file-size bin (100MB bins)\n\n")
	fmt.Fprintf(&b, "%-16s %10s %10s\n", "size bin (GB)", "1-stream", "8-stream")
	for i := range bins1 {
		fmt.Fprintf(&b, "[%.1f,%.1f) %10d %10d\n",
			bins1[i].Lo/1e9, bins1[i].Hi/1e9, bins1[i].Count(), bins8[i].Count())
	}
	fmt.Fprintln(&b, "\npaper shape: counts drop sharply with size; above ~2.3 GB the 1-stream group\nfalls below ~300 observations per bin, making its medians unrepresentative.")
	return textResult{"fig5", b.String()}, nil
}

// figure6 reproduces Fig 6: throughput of the 32 GB NERSC–ORNL transfers
// by time of day (all started at 2 AM or 8 AM).
func figure6(records []usagestats.Record) (Result, error) {
	byHour := map[int][]float64{}
	for _, r := range records {
		byHour[r.Start.Hour()] = append(byHour[r.Start.Hour()], r.ThroughputMbps())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: throughput of the 32 GB NERSC-ORNL transfers by time of day\n\n")
	fmt.Fprintln(&b, summaryHeader())
	for _, h := range []int{2, 8} {
		s := stats.MustSummarize(byHour[h])
		fmt.Fprintln(&b, summaryRow(fmt.Sprintf("  %d AM (n=%d)", h, s.N), s))
	}
	fmt.Fprintln(&b, "\npaper shape: \"Some of the transfers at 2 AM appear to have received higher\nlevels of throughput, but there is significant variance within each set.\"")
	return textResult{"fig6", b.String()}, nil
}

// figure7 reproduces Fig 7: the concurrency intervals within one ANL→NERSC
// transfer (number of concurrent transfers vs time).
func figure7(ts []workload.ANLTransfer) (Result, error) {
	// Pick the transfer with the most concurrency intervals.
	var pick *hostmodel.Transfer
	for _, t := range ts {
		if pick == nil || len(t.Sim.Intervals) > len(pick.Intervals) {
			pick = t.Sim
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: concurrent transfers within the duration of one transfer\n\n")
	fmt.Fprintf(&b, "%-12s %12s %12s %14s\n", "offset (s)", "duration (s)", "concurrent", "rate (Mbps)")
	step := textplot.Series{Name: "concurrent transfers", Marker: '#'}
	for _, iv := range pick.Intervals {
		fmt.Fprintf(&b, "%-12.2f %12.2f %12d %14.1f\n",
			iv.StartSec-pick.StartSec, iv.DurationSec, iv.Concurrent, iv.RateBps/1e6)
		// Sample the step function across the interval so the chart shows
		// plateaus, not isolated points.
		for frac := 0.0; frac <= 1.0; frac += 0.1 {
			step.X = append(step.X, iv.StartSec-pick.StartSec+frac*iv.DurationSec)
			step.Y = append(step.Y, float64(iv.Concurrent))
		}
	}
	appendPlot(&b, "concurrency vs time within the transfer (s):", step)
	fmt.Fprintln(&b, "\npaper shape: the concurrency level steps down as overlapping transfers\ncomplete (e.g. 7 concurrent for 6.56 s, then 6 for 3.98 s, ...).")
	return textResult{"fig7", b.String()}, nil
}

// eq2Shape is what Fig 8 is read for: the Eq. 2 correlation over the
// mem-mem transfers, the R it used (bps) and the number of transfers.
type eq2Shape struct {
	Rho  float64
	R90  float64
	Rows int
}

// figure8 reproduces Fig 8: Eq. 2 predicted vs actual throughput for the
// memory-to-memory transfers, with R at the 90th percentile.
func figure8(ts []workload.ANLTransfer) (Result, error) {
	mm := workload.ANLMemToMem(ts)
	var actual []float64
	for _, t := range mm {
		actual = append(actual, t.Sim.ThroughputBps)
	}
	r90, err := stats.Quantile(actual, 0.90)
	if err != nil {
		return nil, err
	}
	var pred []float64
	for _, t := range mm {
		p, err := hostmodel.PredictThroughput(t.Sim, r90)
		if err != nil {
			return nil, err
		}
		pred = append(pred, p)
	}
	rho, err := stats.Pearson(pred, actual)
	if err != nil {
		return nil, err
	}
	// Per-quartile correlations, as in the paper.
	quartOf := make([]int, len(actual))
	q1v, _ := stats.Quantile(actual, 0.25)
	q2v, _ := stats.Quantile(actual, 0.50)
	q3v, _ := stats.Quantile(actual, 0.75)
	for i, a := range actual {
		switch {
		case a <= q1v:
			quartOf[i] = 0
		case a <= q2v:
			quartOf[i] = 1
		case a <= q3v:
			quartOf[i] = 2
		default:
			quartOf[i] = 3
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: actual vs Eq.2-predicted throughput, ANL->NERSC mem-mem transfers\n\n")
	fmt.Fprintf(&b, "R (90th percentile of throughput) = %.2f Gbps (paper: 2.19 Gbps)\n", r90/1e9)
	fmt.Fprintf(&b, "overall correlation rho = %.3f (paper: 0.884)\n", rho)
	for q := 0; q < 4; q++ {
		var pq, aq []float64
		for i := range actual {
			if quartOf[i] == q {
				pq = append(pq, pred[i])
				aq = append(aq, actual[i])
			}
		}
		r, err := stats.Pearson(pq, aq)
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, "quartile %d correlation = %.3f\n", q+1, r)
	}
	fmt.Fprintln(&b, "\npaper shape: strong overall correlation between predicted and actual values;\nmuch weaker within-quartile correlations (0.141/0.051/0.191/0.347) — the\npredictor captures the between-transfer contention structure, not the\nwithin-quartile noise.")
	return valued[eq2Shape]{textResult{"fig8", b.String()}, eq2Shape{rho, r90, len(mm)}}, nil
}
