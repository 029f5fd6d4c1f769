package main

import (
	"fmt"

	"capnn/internal/serve"
	"capnn/internal/tensor"
)

// checkSamples is how many served requests are replayed and verified
// after each timed window.
const checkSamples = 64

// check replays a spread of the window's requests one at a time and
// verifies each answer against the reference network: the logits must
// equal, bit for bit (DESIGN invariant 13), either the masked inference
// under the masks some shard caches for the key, or the unpruned
// inference (every 8th request per entry is an unflagged guard shadow
// sample). Class must be the logits' argmax. It returns the violations
// and how many replays were sent and how many of them failed.
func check(e *env, d *driven) (violations []string, sent, failed int) {
	served := d.served()
	client := serve.NewClient(e.target)
	for n := 0; n < checkSamples && len(served) > 0; n++ {
		pick := served[n*len(served)/checkSamples]
		idx := pick.idx
		r := e.gen.at(pick.stream, idx)
		x := tensor.MustFromSlice(r.wire.Input, 1, e.gen.test.C, e.gen.test.H, e.gen.test.W)
		unpruned := e.fx.Net.Infer(x, nil).Data()
		// A heal may replace the entry between the answer and the export;
		// one mismatch is re-asked, a second is a violation.
		why := ""
		for attempt := 0; attempt < 2; attempt++ {
			sent++
			resp, err := client.Infer(r.wire)
			if err != nil {
				failed++
				why = err.Error()
				continue
			}
			if why = verify(e, r, x, unpruned, resp); why == "" {
				break
			}
		}
		if why != "" {
			violations = append(violations, fmt.Sprintf("request %d: %s", idx, why))
		}
	}
	return violations, sent, failed
}

func verify(e *env, r request, x *tensor.Tensor, unpruned []float64, resp *serve.WireResponse) string {
	if len(resp.Logits) != len(unpruned) {
		return fmt.Sprintf("%d logits, want %d", len(resp.Logits), len(unpruned))
	}
	if got := tensor.Argmax(resp.Logits); resp.Class != got {
		return fmt.Sprintf("class %d is not the argmax %d of its logits", resp.Class, got)
	}
	if equal(resp.Logits, unpruned) {
		return ""
	}
	_, masks, ok := e.holder(r.cacheKey())
	if !ok {
		return "logits differ from the unpruned network's and no shard caches the key"
	}
	if !equal(resp.Logits, e.fx.Net.Infer(x, masks).Data()) {
		return "logits differ from both the masked and the unpruned reference inference"
	}
	return ""
}

func equal(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}
