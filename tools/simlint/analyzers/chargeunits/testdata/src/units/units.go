// Package units exercises the chargeunits analyzer against the real
// cost package's constants.
package units

import (
	"daxvm/internal/cost"
	"daxvm/tools/simlint/teststub/sim"
)

func mixedAdd(copyNS float64) uint64 {
	latencyNS := 305.0
	_ = latencyNS + float64(cost.PMemLoadLatency) // want `expression mixes nanoseconds and cycles`
	return cost.Cycles(latencyNS + copyNS)        // additive in ns, converted: fine
}

func mixedCompare(sizeBytes uint64) bool {
	return sizeBytes > cost.JournalCommit // want `expression mixes bytes and cycles`
}

func mixedAssign(totalCycles uint64, deltaNS uint64) uint64 {
	totalCycles += deltaNS // want `expression mixes cycles and nanoseconds`
	totalCycles += cost.FsyncFixed
	return totalCycles
}

func chargeWrongUnit(t *sim.Thread, copyBytes uint64) {
	t.Charge(copyBytes) // want `Charge expects cycles, got a bytes-valued expression`
	t.Charge(cost.ReadWriteFixed)
	t.ChargeAs(lFlush, cost.ClwbCost+cost.FenceCost)
}

func batchChargeUnits(t *sim.Thread, copyBytes, numPages, waitCycles, delayNS uint64) {
	t.ChargeN(copyBytes, 4)                      // want `ChargeN expects cycles, got a bytes-valued expression`
	t.ChargeN(cost.FenceCost, waitCycles)        // want `ChargeN expects a count of charges, got a cycles-valued expression`
	t.ChargeAsN(lStore, delayNS, 8)              // want `ChargeAsN expects cycles, got a nanoseconds-valued expression`
	t.ChargeAsN(lStore, cost.ClwbCost, delayNS)  // want `ChargeAsN expects a count of charges, got a nanoseconds-valued expression`
	t.ChargeN(cost.PTESetPerPage/4, numPages)    // one charge per page: fine
	t.ChargeAsN(lStore, cost.ClwbCost, numPages) // fine
}

func sleepWrongUnit(t *sim.Thread, periodNS uint64) {
	t.Sleep(periodNS) // want `Sleep expects cycles, got a nanoseconds-valued expression`
	t.Sleep(cost.SchedWakeup)
}

func cyclesWrongUnit(numPages uint64) uint64 {
	return cost.Cycles(float64(numPages)) // want `cost\.Cycles expects nanoseconds, got a pages-valued expression`
}

func cyclesRightUnit(elapsedNS float64) uint64 {
	return cost.Cycles(elapsedNS)
}

func rateConversionOK(t *sim.Thread, numPages uint64) {
	// Multiplying by a Per<X> rate changes units; the product is
	// deliberately untyped and charging it is fine.
	t.Charge(numPages * cost.CopyDRAMPerPage)
}

func remoteRateOK(t *sim.Thread, numPages uint64) {
	// The NUMA surcharge constants follow the Per-suffix discipline:
	// Per<X>-named rates are untyped, so scaling by a count and charging
	// the product is fine.
	t.Charge(numPages * cost.RemotePMemReadExtraPerPage)
	t.ChargeAs(lIpiSend, 3*cost.IPICrossSocketPerTarget)
}

func remoteMixedUnits(sizeBytes uint64) bool {
	// The flat remote-walk surcharge is cycles; comparing bytes against
	// it mixes units.
	return sizeBytes > cost.RemotePMemWalkExtra // want `expression mixes bytes and cycles`
}

func thresholdOK(numPages uint64) bool {
	// pages compared against a pages-suffixed threshold: same unit.
	return numPages > cost.FullFlushThresholdPages
}

func suppressedMix(walkCycles, wallNS uint64) uint64 {
	//lint:ignore chargeunits calibration scratch math, units checked by hand
	return walkCycles + wallNS
}

// Labels the fixture charges and opens, minted once at package level.
var (
	lFlush   = sim.NewLabel("flush")
	lStore   = sim.NewLabel("store")
	lIpiSend = sim.NewLabel("ipi_send")
)
