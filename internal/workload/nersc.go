package workload

import (
	"math/rand"
	"time"

	"gftpvc/internal/hostmodel"
	"gftpvc/internal/stats"
	"gftpvc/internal/usagestats"
)

// NERSCORNL32G generates the 145 32 GB NERSC–ORNL administration-run test
// transfers of September 2010 (Table V, Fig 6): 8 parallel streams, one
// stripe, started at either 2 AM or 8 AM, with throughput matched to the
// paper's summary (Min 758 Mbps, Max 3.64 Gbps, IQR 695 Mbps). The
// records are anonymized — the remote IP is absent, the property that
// blocked session analysis on the real NERSC logs.
func NERSCORNL32G(seed int64) []usagestats.Record {
	rng := rand.New(rand.NewSource(seed))
	sampler := stats.MustQuantileSampler(PaperNERSCORNLThroughputMbps)
	records := make([]usagestats.Record, 0, PaperNERSCORNLTransfers)
	day := time.Date(2010, 9, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < PaperNERSCORNLTransfers; i++ {
		hour := 8
		thr := sampler.Sample(rng)
		if i%2 == 0 {
			hour = 2
			// Fig 6: "Some of the transfers at 2 AM appear to have
			// received higher levels of throughput, but there is
			// significant variance within each set."
			thr *= 1.08
			if thr > PaperNERSCORNLThroughputMbps.Max {
				thr = PaperNERSCORNLThroughputMbps.Max
			}
		}
		// Five test transfers per day in 2 AM / 8 AM slots, spaced at
		// least 11 minutes apart — administrative cron jobs run one at a
		// time, and the longest possible transfer (32 GB at the 758 Mbps
		// Table V minimum) lasts under six minutes.
		start := day.AddDate(0, 0, i/5).Add(time.Duration(hour) * time.Hour).
			Add(time.Duration(i%5) * 11 * time.Minute).
			Add(time.Duration(rng.Float64() * float64(4*time.Minute)))
		// Nominally 32 GB with ±25% spread. Byte-identical sizes would
		// make the Table XI correlations (GridFTP bytes vs link bytes)
		// undefined, and a spread much smaller than Eq. 1's edge-bin
		// proration error (±1–2 GB at these rates) could not produce the
		// high correlations the paper reports — including within
		// throughput quartiles, which surprised the authors.
		size := PaperNERSCORNL32GBytes + int64((rng.Float64()-0.5)*0.50*float64(PaperNERSCORNL32GBytes))
		dur := float64(size) * 8 / (thr * 1e6)
		records = append(records, usagestats.Record{
			Type:        usagestats.Retrieve,
			SizeBytes:   size,
			Start:       start,
			DurationSec: dur,
			ServerHost:  HostNERSC,
			RemoteHost:  "", // anonymized, as in the real NERSC logs
			Streams:     8,
			Stripes:     1,
			BufferBytes: 4 << 20,
			BlockBytes:  256 << 10,
		})
	}
	usagestats.SortByStart(records)
	return records
}

// ANLTransfer is one NERSC–ANL test transfer with its endpoint category
// and, after simulation, its concurrency trace (for Eq. 2 / Figs 7–8).
type ANLTransfer struct {
	Src, Dst hostmodel.EndpointKind
	Record   usagestats.Record
	Sim      *hostmodel.Transfer
}

// Category renders "mem-mem", "mem-disk", etc.
func (t ANLTransfer) Category() string { return t.Src.String() + "-" + t.Dst.String() }

// NERSCANLRates models the NERSC DTN: memory endpoints move ~0.9 Gbps per
// transfer, the disk subsystem (the Fig 1 bottleneck, on the write side)
// less; the server sustains R ≈ 2.19 Gbps aggregate — the 90th-percentile
// value the paper plugs into Eq. 2.
var NERSCANLRates = hostmodel.Rates{
	MemoryBps:    1.0e9,
	DiskReadBps:  0.85e9,
	DiskWriteBps: 0.62e9,
	AggregateBps: 2.19e9,
}

// NERSCANL generates the 334 ANL→NERSC test transfers (84 mem-mem, 78
// mem-disk, 87 disk-mem, 85 disk-disk) by simulating the NERSC server's
// concurrency: arrivals come in bursts so transfers overlap, each
// transfer's per-category rate cap carries log-normal run-to-run noise
// (Table VI's ~31–36% CVs), and the shared aggregate R throttles
// concurrent bursts. The returned transfers carry their concurrency
// traces for the Eq. 2 analysis.
func NERSCANL(seed int64) ([]ANLTransfer, error) {
	rng := rand.New(rand.NewSource(seed))
	type spec struct {
		src, dst hostmodel.EndpointKind
		count    int
	}
	specs := []spec{
		{hostmodel.Memory, hostmodel.Memory, PaperNERSCANLMemMem},
		{hostmodel.Memory, hostmodel.Disk, PaperNERSCANLMemDisk},
		{hostmodel.Disk, hostmodel.Memory, PaperNERSCANLDiskMem},
		{hostmodel.Disk, hostmodel.Disk, PaperNERSCANLDiskDisk},
	}
	var all []ANLTransfer
	for _, sp := range specs {
		for i := 0; i < sp.count; i++ {
			all = append(all, ANLTransfer{Src: sp.src, Dst: sp.dst})
		}
	}
	// Shuffle so categories interleave in time, then schedule in bursts of
	// two to four with short intra-burst offsets: overlap creates the
	// concurrency intervals of Fig 7, but the aggregate R must not throttle
	// every transfer or the per-category medians (Table VI) wash out.
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	sims := make([]*hostmodel.Transfer, len(all))
	cursor := 0.0
	inBurst := 0
	burstLen := 2
	for i := range all {
		if inBurst >= burstLen {
			cursor += 150 + rng.Float64()*200
			inBurst = 0
			// Bursts of 2-4 concurrent transfers: contention for the
			// shared aggregate R is the dominant variance source — the
			// paper's finding (v) — which is what makes the Eq. 2
			// predictor correlate (Fig 8: the paper's ρ is 0.884, this
			// generator's 0.807). Per-transfer
			// noise (gsd 1.24) adds the residual spread behind Table
			// VI's coefficients of variation.
			switch r := rng.Float64(); {
			case r < 0.3:
				burstLen = 2
			case r < 0.7:
				burstLen = 3
			default:
				burstLen = 4
			}
		}
		inBurst++
		capBps := hostmodel.NoisyCap(rng, NERSCANLRates.PerTransferCap(all[i].Src, all[i].Dst), 1.24)
		sims[i] = &hostmodel.Transfer{
			StartSec:  cursor + rng.Float64()*15,
			SizeBytes: 8e9, // 8 GB test payloads
			CapBps:    capBps,
		}
		all[i].Sim = sims[i]
	}
	server := hostmodel.Server{AggregateBps: NERSCANLRates.AggregateBps}
	if err := server.Simulate(sims); err != nil {
		return nil, err
	}
	base := time.Date(2012, 3, 4, 0, 0, 0, 0, time.UTC)
	for i := range all {
		sim := all[i].Sim
		dst := usagestats.Store // files move ANL -> NERSC
		all[i].Record = usagestats.Record{
			Type:        dst,
			SizeBytes:   int64(sim.SizeBytes),
			Start:       base.Add(time.Duration(sim.StartSec * float64(time.Second))),
			DurationSec: sim.EndSec - sim.StartSec,
			ServerHost:  HostNERSC,
			RemoteHost:  HostANL,
			Streams:     8,
			Stripes:     1,
			BufferBytes: 4 << 20,
			BlockBytes:  256 << 10,
		}
	}
	return all, nil
}

// ANLCategoryThroughputs groups throughputs (Mbps) by endpoint category,
// the Table VI / Fig 1 partition.
func ANLCategoryThroughputs(ts []ANLTransfer) map[string][]float64 {
	out := make(map[string][]float64)
	for _, t := range ts {
		out[t.Category()] = append(out[t.Category()], t.Record.ThroughputMbps())
	}
	return out
}

// ANLMemToMem filters the memory-to-memory transfers, the subset the
// paper's Eq. 2 analysis (Fig 8) uses.
func ANLMemToMem(ts []ANLTransfer) []ANLTransfer {
	var out []ANLTransfer
	for _, t := range ts {
		if t.Src == hostmodel.Memory && t.Dst == hostmodel.Memory {
			out = append(out, t)
		}
	}
	return out
}
