package exp

import (
	"fmt"
	"io"
	"strings"
)

// Claim is one of the paper's qualitative results turned into an
// executable check.
type Claim struct {
	ID      int
	Text    string
	Pass    bool
	Detail  string
	skipped bool
}

// Results are the rows the §V runners returned, as the claim checklist
// reads them: every field but Table3 must be filled.
type Results struct {
	Epsilon float64 // the ε Fig4's OverEpsilon column was measured against
	Fig4    []ComparisonRow
	Fig6    []TradeoffRow
	Table1  []EnergyRow
	Table2  []StackedRow
	Table3  []CaptorRow // nil skips claim 7
	Memory  MemoryReport
}

// CheckClaims judges the paper's headline claims on the runners' rows;
// it computes nothing the printed tables do not show. The returned
// slice is ordered by claim ID.
func CheckClaims(r Results) []Claim {
	// Fig. 4/5: the ε guarantee, mean sizes, and M's accuracy at K=2.
	var worstDrop, sB, sW, sM, dTop1, dTop5 float64
	over, k2 := 0, 0
	for _, row := range r.Fig4 {
		worstDrop = max(worstDrop, row.ValDrop)
		if row.OverEpsilon > 0 {
			over++
		}
		sB, sW, sM = sB+row.RelSizeB, sW+row.RelSizeW, sM+row.RelSizeM
		if row.K == 2 {
			dTop1, dTop5, k2 = dTop1+row.Top1M-row.Top1Orig, dTop5+row.Top5M-row.Top5Orig, k2+1
		}
	}
	n := float64(len(r.Fig4))
	sB, sW, sM = sB/n, sW/n, sM/n
	dTop1, dTop5 = dTop1/float64(k2), dTop5/float64(k2)

	// Table II: every stacked cell must shrink its baseline.
	stacked, worstRatio := true, 0.0
	for _, row := range r.Table2 {
		stacked = stacked && row.SizeWith < row.SizeWithout
		worstRatio = max(worstRatio, row.SizeWith/row.SizeWithout)
	}

	f6a, f6z := r.Fig6[0], r.Fig6[len(r.Fig6)-1]
	t1a, t1z := r.Table1[0], r.Table1[len(r.Table1)-1]
	claim7 := Claim{ID: 7, Text: "CAP'NN vs CAPTOR (Table III)", skipped: true, Detail: "no Table III rows"}
	if r.Table3 != nil {
		a, z := r.Table3[0], r.Table3[len(r.Table3)-1]
		claim7 = Claim{ID: 7, Text: "CAP'NN ≤ CAPTOR energy at small fractions, converging at 100%",
			Pass: a.CapnnRel <= a.CaptorRel+0.05 && z.CapnnRel > a.CapnnRel,
			Detail: fmt.Sprintf("%d%%: capnn %.2f vs captor %.2f; %d%%: capnn %.2f vs captor %.2f",
				a.Percent, a.CapnnRel, a.CaptorRel, z.Percent, z.CapnnRel, z.CaptorRel)}
	}
	return []Claim{
		{ID: 1, Text: "per-class degradation ≤ ε on the split the algorithms check", Pass: over == 0,
			Detail: fmt.Sprintf("worst cell-mean degradation %.3f vs ε %.3f; %d of %d cells have a combination over ε",
				worstDrop, r.Epsilon, over, len(r.Fig4))},
		{ID: 2, Text: "usage-aware W/M prune substantially more than B", Pass: sW < sB-0.05 && sM < sB-0.05,
			Detail: fmt.Sprintf("mean rel. size B %.2f, W %.2f, M %.2f", sB, sW, sM)},
		{ID: 3, Text: "CAP'NN-M lifts accuracy above the unpruned model at small K", Pass: dTop1 >= 0,
			Detail: fmt.Sprintf("mean Δtop-1 %+.3f, Δtop-5 %+.3f at K=2", dTop1, dTop5)},
		{ID: 4, Text: "relative size grows substantially as K → C (Fig. 6 shape)", Pass: f6z.RelSize > f6a.RelSize+0.1,
			Detail: fmt.Sprintf("rel. size %.2f at K=%d vs %.2f at K=%d", f6a.RelSize, f6a.K, f6z.RelSize, f6z.K)},
		{ID: 5, Text: "meaningful energy savings at small K; less at larger K",
			Pass:   t1a.RelEnergy < 0.9 && t1a.RelEnergy <= t1z.RelEnergy+0.05,
			Detail: fmt.Sprintf("rel. energy %.2f at K=%d vs %.2f at K=%d", t1a.RelEnergy, t1a.K, t1z.RelEnergy, t1z.K)},
		{ID: 6, Text: "CAP'NN-M further shrinks class-unaware pruned models (Table II)", Pass: stacked,
			Detail: fmt.Sprintf("worst with/without ratio %.2f over %d cells", worstRatio, len(r.Table2))},
		claim7,
		{ID: 8, Text: "3-bit firing-rate storage is a small overhead (§V-C)", Pass: r.Memory.Overhead.Ratio < 0.15,
			Detail: fmt.Sprintf("overhead %.2f%% of the 16-bit model", 100*r.Memory.Overhead.Ratio)},
	}
}

func (c Claim) status() string {
	switch {
	case c.skipped:
		return "SKIP"
	case c.Pass:
		return "PASS"
	}
	return "FAIL"
}

// PrintClaims renders the claim checklist.
func PrintClaims(w io.Writer, claims []Claim) {
	fmt.Fprintln(w, "Paper-claim verification")
	fmt.Fprintln(w, strings.Repeat("-", 72))
	for _, c := range claims {
		fmt.Fprintf(w, "[%s] claim %d: %s\n       %s\n", c.status(), c.ID, c.Text, c.Detail)
	}
}
