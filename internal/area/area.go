// Package area reproduces the §6.8 area/power arithmetic with a small
// CACTI-style analytical SRAM model. The model is calibrated to the paper's
// anchor points: a 4 x 2 KiB granule cache is ~0.025 mm² at 22 nm (~0.03 nJ
// per access), scaling to ~0.02 mm² over four slices at 7 nm with the
// paper's conservative 5x node factor, and an 8-entry 4096-bit Bloom-filter
// pair is ~0.005 mm² at 7 nm.
package area

import (
	"fmt"
	"strings"

	"loopfrog/internal/core"
)

// Constants anchored to the paper's CACTI numbers.
const (
	// mm2PerKiB22nm is SRAM array area per KiB at 22 nm (iTRS-hp, one
	// read/write plus one read-exclusive port), from the paper's 8 KiB =
	// 0.025 mm² per-slice-set figure with overheads folded in.
	mm2PerKiB22nm = 0.025 / 8.0
	// nodeScale22to7 is the paper's conservative 22 nm -> 7 nm factor.
	nodeScale22to7 = 5.0
	// njPerAccess8KiB is the paper's per-access energy at the headline size.
	njPerAccess8KiB = 0.03
	// bloomMM2 is the Bloom-filter conflict-checking area at 7 nm (dual
	// ported SRAM, 8 entries, 4096-bit filters), after Swarm.
	bloomMM2 = 0.005
	// n1CoreMM2 is the Arm Neoverse N1 reference core area at 7 nm,
	// including private L1 and 1 MiB L2 (the paper's comparison core).
	n1CoreMM2 = 1.4
	// smtAreaLow/High bracket the classic SMT area overhead estimate.
	smtAreaLow, smtAreaHigh = 0.10, 0.15
)

// SSBArea returns the estimated area of the SSB's granule-cache storage in
// mm² at 7 nm for the given configuration.
func SSBArea(cfg core.SSBConfig) float64 {
	totalKiB := float64(cfg.Slices*cfg.SliceBytes) / 1024.0
	// Metadata: tag + valid mask per line, roughly proportional to line
	// count; the calibration constant already folds the headline overhead
	// in, so scale linearly with capacity.
	return totalKiB * mm2PerKiB22nm / nodeScale22to7
}

// SSBAccessEnergyNJ returns the per-access energy estimate in nJ.
func SSBAccessEnergyNJ(cfg core.SSBConfig) float64 {
	totalKiB := float64(cfg.Slices*cfg.SliceBytes) / 1024.0
	// Access energy grows sublinearly with capacity; a square-root model is
	// the usual CACTI-fit shape at these sizes.
	base := totalKiB / 8.0
	if base <= 0 {
		return 0
	}
	return njPerAccess8KiB * sqrt(base)
}

// Overheads summarises §6.8.
type Overheads struct {
	SSBMM2        float64
	BloomMM2      float64
	NewLogicFrac  float64 // SSB+Bloom over the N1-class core
	TotalLowFrac  float64 // including SMT support, low estimate
	TotalHighFrac float64
	IfSMTFrac     float64 // additional area if SMT already exists
}

// Compute returns the overhead summary for an SSB configuration.
func Compute(cfg core.SSBConfig) Overheads {
	ssb := SSBArea(cfg)
	newLogic := (ssb + bloomMM2) / n1CoreMM2
	return Overheads{
		SSBMM2:        ssb,
		BloomMM2:      bloomMM2,
		NewLogicFrac:  newLogic,
		TotalLowFrac:  smtAreaLow + newLogic,
		TotalHighFrac: smtAreaHigh + newLogic,
		IfSMTFrac:     newLogic,
	}
}

// Report renders the §6.8 overhead summary.
func Report(cfg core.SSBConfig) string {
	o := Compute(cfg)
	var b strings.Builder
	b.WriteString("Area and power overheads (§6.8)\n")
	fmt.Fprintf(&b, "SSB granule cache (%d x %d B):  %.3f mm2 at 7nm (%.3f nJ/access)\n",
		cfg.Slices, cfg.SliceBytes, o.SSBMM2, SSBAccessEnergyNJ(cfg))
	fmt.Fprintf(&b, "Bloom-filter conflict detector: %.3f mm2 at 7nm\n", o.BloomMM2)
	fmt.Fprintf(&b, "new components vs N1-class core (%.1f mm2): %.1f%%\n", n1CoreMM2, 100*o.NewLogicFrac)
	fmt.Fprintf(&b, "total vs sequential design (incl. SMT support): %.0f-%.0f%%\n",
		100*o.TotalLowFrac, 100*o.TotalHighFrac)
	fmt.Fprintf(&b, "total if SMT support already exists: ~%.0f%%\n", 100*o.IfSMTFrac+0.5)
	return b.String()
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 32; i++ {
		z = (z + x/z) / 2
	}
	return z
}
