// Benchmarks regenerating every table and figure of the paper's
// evaluation (DESIGN.md §4 maps each one). Run them all with
//
//	go test -bench=. -benchmem
//
// The first run trains and caches the two reference models under
// testdata/fixtures (a few minutes on one core); later runs reuse them.
// Each benchmark prints the regenerated rows once, then times the runner.
// CAPNN_COMBOS=n raises the statistical averaging toward the paper's 200
// random class combinations.
package capnn

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/cluster"
	"capnn/internal/core"
	"capnn/internal/exp"
	"capnn/internal/firing"
	"capnn/internal/nn"
	"capnn/internal/rpc"
	"capnn/internal/serve"
	"capnn/internal/tensor"
	"capnn/internal/train"
)

var (
	mainOnce sync.Once
	mainFx   *exp.Fixture
	mainErr  error

	c10Once sync.Once
	c10Fx   *exp.Fixture
	c10Err  error
)

func mainFixture(b *testing.B) *exp.Fixture {
	b.Helper()
	mainOnce.Do(func() { mainFx, mainErr = exp.Load(exp.ImageNet20Config(), os.Stderr) })
	if mainErr != nil {
		b.Fatalf("fixture: %v", mainErr)
	}
	return mainFx
}

func cifarFixture(b *testing.B) *exp.Fixture {
	b.Helper()
	c10Once.Do(func() { c10Fx, c10Err = exp.Load(exp.CIFAR10Config(), os.Stderr) })
	if c10Err != nil {
		b.Fatalf("fixture: %v", c10Err)
	}
	return c10Fx
}

func benchScale() exp.Scale { return exp.QuickScale().FromEnv() }

// Fig. 4 and Fig. 5 are two views of the same K×usage sweep; the rows are
// computed once and shared so `go test -bench=.` does not pay for the
// multi-minute sweep twice.
var (
	cmpOnce sync.Once
	cmpRows []exp.ComparisonRow
	cmpErr  error
)

func comparisonRows(b *testing.B, fx *exp.Fixture, scale exp.Scale) []exp.ComparisonRow {
	b.Helper()
	cmpOnce.Do(func() { cmpRows, cmpErr = exp.RunComparison(fx, scale, nil) })
	if cmpErr != nil {
		b.Fatal(cmpErr)
	}
	return cmpRows
}

// BenchmarkFig3Example times the worked example of Fig. 3: CAP'NN-W's
// effective-rate rule on the paper's 3-neuron/3-class matrix.
func BenchmarkFig3Example(b *testing.B) {
	rates := exampleRates()
	prefs, err := core.Weighted([]int{0, 1, 2}, []float64{0.8, 0.1, 0.1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	pruned := 0
	for i := 0; i < b.N; i++ {
		for n := 0; n < 3; n++ {
			if core.EffectiveRate(rates, prefs, n) <= 0.1 {
				pruned++
			}
		}
	}
	if pruned == 0 {
		b.Fatal("Fig. 3 example pruned nothing")
	}
}

// BenchmarkFig4ModelSize regenerates Fig. 4 (average relative model size
// of B/W/M across K and usage distributions).
func BenchmarkFig4ModelSize(b *testing.B) {
	fx := mainFixture(b)
	scale := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := comparisonRows(b, fx, scale)
		if i == 0 {
			exp.PrintFig4(os.Stdout, rows, scale)
		}
	}
}

// BenchmarkFig5Accuracy regenerates Fig. 5 (top-1 accuracy of B/W/M vs
// the unpruned model, same sweep as Fig. 4).
func BenchmarkFig5Accuracy(b *testing.B) {
	fx := mainFixture(b)
	scale := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := comparisonRows(b, fx, scale)
		if i == 0 {
			exp.PrintFig5(os.Stdout, rows, scale)
		}
	}
}

// BenchmarkFig6Tradeoff regenerates Fig. 6 (CAP'NN-M size/accuracy as K
// grows toward the full class space).
func BenchmarkFig6Tradeoff(b *testing.B) {
	fx := mainFixture(b)
	scale := benchScale()
	ks := exp.DefaultTradeoffKs(fx.Config.Synth.Classes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := exp.RunTradeoff(fx, scale, ks, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			exp.PrintFig6(os.Stdout, rows, fx.Config.Synth.Classes, scale)
		}
	}
}

// BenchmarkTable1Energy regenerates Table I (relative energy of CAP'NN-M
// pruned models on the TPU-like device).
func BenchmarkTable1Energy(b *testing.B) {
	fx := mainFixture(b)
	scale := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := exp.RunEnergy(fx, scale, exp.Table1Ks, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			exp.PrintTable1(os.Stdout, rows, scale)
		}
	}
}

// BenchmarkTable2Stacked regenerates Table II (CAP'NN-M stacked on
// class-unaware pruned + fine-tuned models).
func BenchmarkTable2Stacked(b *testing.B) {
	fx := mainFixture(b)
	scale := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := exp.RunStacked(fx, scale, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			exp.PrintTable2(os.Stdout, rows, scale)
		}
	}
}

// BenchmarkTable3Captor regenerates Table III (normalized energy vs the
// CAPTOR-style class-adaptive comparator on the 10-class model).
func BenchmarkTable3Captor(b *testing.B) {
	fx := cifarFixture(b)
	scale := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := exp.RunCaptor(fx, scale, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			exp.PrintTable3(os.Stdout, rows, scale)
		}
	}
}

// BenchmarkMemoryOverhead regenerates the §V-C firing-rate storage
// accounting.
func BenchmarkMemoryOverhead(b *testing.B) {
	fx := mainFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := exp.RunMemory(fx)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			exp.PrintMemory(os.Stdout, rep)
		}
	}
}

// --- latency micro-benchmarks (paper §III: online pruning is fast) -------

// BenchmarkOnlineB times CAP'NN-B's run-time step: intersecting the
// per-class pruning vectors (the paper's "fast online procedure").
func BenchmarkOnlineB(b *testing.B) {
	fx := mainFixture(b)
	bm, err := fx.EnsureB(os.Stderr)
	if err != nil {
		b.Fatal(err)
	}
	K := []int{1, 5, 9, 13, 17}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.OnlineB(bm, K); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPruneW times CAP'NN-W's full online pruning pass (threshold
// descent + ε checks through the suffix evaluator).
func BenchmarkPruneW(b *testing.B) {
	fx := mainFixture(b)
	prefs, err := core.Weighted([]int{2, 11}, []float64{0.8, 0.2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PruneW(fx.Sys.Eval, fx.Sys.Rates, prefs, fx.Sys.Params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPruneM times one cold personalisation as the serving tier
// runs it — System.Prune(VariantM) on the cifar10 fixture for the
// serving benchmark's 4-class new user: confusion rows, miseffectual
// neurons, then the weighted descent.
func BenchmarkPruneM(b *testing.B) {
	fx := cifarFixture(b)
	prefs, err := core.Weighted([]int{1, 2, 3, 4}, []float64{0.4, 0.3, 0.2, 0.1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fx.Sys.Prune(core.VariantM, prefs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInference times one forward pass of the unpruned reference
// model — the device-side cost CAP'NN reduces.
func BenchmarkInference(b *testing.B) {
	fx := mainFixture(b)
	x, _ := fx.Sets.Test.Batch([]int{0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.Net.Forward(x)
	}
}

// BenchmarkInferencePruned times a forward pass of a compacted
// personalized model for comparison with BenchmarkInference.
func BenchmarkInferencePruned(b *testing.B) {
	fx := mainFixture(b)
	prefs := core.Uniform([]int{3, 7})
	masks, err := fx.Sys.Prune(core.VariantM, prefs)
	if err != nil {
		b.Fatal(err)
	}
	pruned, err := nn.CompactMasked(fx.Net, masks)
	if err != nil {
		b.Fatal(err)
	}
	x, _ := fx.Sets.Test.Batch([]int{0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pruned.Forward(x)
	}
}

// pruneRatioMasks builds a deterministic mask set pruning the first
// `ratio` of units in every prunable stage (at least one survivor per
// stage). Benchmarks want a controlled pruning ratio, not whatever
// CAP'NN's algorithms produce for a particular preference.
func pruneRatioMasks(net *nn.Network, ratio float64) map[int][]bool {
	if ratio <= 0 {
		return nil
	}
	masks := map[int][]bool{}
	for _, st := range net.Stages() {
		units := st.Unit.Units()
		k := int(float64(units) * ratio)
		if k >= units {
			k = units - 1
		}
		m := make([]bool, units)
		for j := 0; j < k; j++ {
			m[j] = true // true = pruned
		}
		masks[st.Index] = m
	}
	return masks
}

// BenchmarkCompiledInfer is the tentpole number: masked inference (full
// model FLOPs, pruned outputs zeroed) against compiled inference (the
// physically compacted nn.Compiled) at 0/20/40/60% pruning on a batch of
// 8, then on what a request actually runs: one image under a real
// Prune(M) mask set. Masked rows should stay roughly flat as
// pruning deepens; compiled rows should drop with the ratio, clearing
// ~1.5× at 40%. Each plan is checked bit-identical to the masked path
// before timing (the Compile probe re-asserts it internally too).
func BenchmarkCompiledInfer(b *testing.B) {
	fx := cifarFixture(b)
	net := fx.Sys.Net
	row := func(name string, x *tensor.Tensor, masks map[int][]bool) {
		c, err := nn.Compile(net, masks)
		if err != nil {
			b.Fatalf("compile %s: %v", name, err)
		}
		want, got := net.Infer(x, masks).Data(), c.Infer(x).Data()
		for i := range want {
			if want[i] != got[i] {
				b.Fatalf("compiled output diverges from masked at %s, elem %d", name, i)
			}
		}
		b.Run(name+"/masked", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				net.Infer(x, masks)
			}
		})
		b.Run(name+"/compiled", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Infer(x)
			}
		})
	}
	x8, _ := fx.Sets.Test.Batch(firstN(fx.Sets.Test.Len(), 8))
	for _, pct := range []int{0, 20, 40, 60} {
		row(fmt.Sprintf("pruned-%d", pct), x8, pruneRatioMasks(net, float64(pct)/100))
	}
	m, err := fx.Sys.Prune(core.VariantM, core.Uniform([]int{3, 7}))
	if err != nil {
		b.Fatal(err)
	}
	x1, _ := fx.Sets.Test.Batch([]int{0})
	row("prune-M-batch-1", x1, m)
}

// BenchmarkServeThroughput compares multi-user serving strategies on the
// 10-class fixture: the naive per-request path (one stateless batch-1
// masked Infer of the shared network under the requester's masks, full
// model FLOPs) against internal/serve's pipeline, where eight concurrent
// callers each get one lock-free forward on the entry's shared compiled
// plan. Reported req/s is the headline;
// CHANGES.md records the measured ratio (benchmark/README.md lead 4 is
// the same comparison against the micro-batcher this pipeline replaced).
func BenchmarkServeThroughput(b *testing.B) {
	fx := cifarFixture(b)
	prefs := core.Uniform([]int{3, 7})
	masks, err := fx.Sys.Prune(core.VariantM, prefs)
	if err != nil {
		b.Fatal(err)
	}
	x1, _ := fx.Sets.Test.Batch([]int{0})
	shape := x1.Shape()
	sample := x1.MustReshape(shape[1:]...)

	hammer := func(b *testing.B, srv *serve.Server) {
		const lanes = 8
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for g := 0; g < lanes; g++ {
			n := b.N / lanes
			if g < b.N%lanes {
				n++
			}
			if n == 0 {
				continue
			}
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if _, err := srv.Infer(prefs, sample); err != nil {
						b.Error(err)
						return
					}
				}
			}(n)
		}
		wg.Wait()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	}

	b.Run("naive-per-request", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fx.Net.Infer(x1, masks)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})

	b.Run("serve", func(b *testing.B) {
		srv := serve.NewServerWith(fx.Sys, serve.Config{})
		defer srv.Close()
		if _, err := srv.Infer(prefs, sample); err != nil { // warm the cache: the fill personalizes and compiles
			b.Fatal(err)
		}
		hammer(b, srv)
	})
}

// BenchmarkConvForward times the substrate's 3×3 convolution.
func BenchmarkConvForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	conv, err := nn.NewConv2D("c", []int{8, 32, 32}, 16, 3, 1, 1, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(1, 8, 32, 32)
	x.FillNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x)
	}
}

// BenchmarkFiringProfile times the preprocessing step: class-specific
// firing-rate computation over one profiling batch.
func BenchmarkFiringProfile(b *testing.B) {
	fx := mainFixture(b)
	stages := fx.Sys.Params.Stages
	small := fx.Sets.Profile.Subset(firstN(fx.Sets.Profile.Len(), 40))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProfileRates(fx.Net, small, stages); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileRates measures firing-rate profiling throughput as the
// worker pool widens. Results are bit-identical across sub-benchmarks
// (see determinism_test.go); only wall-clock should move. On a
// single-core box the 2- and 4-worker rows only measure scheduling
// overhead — read them on multi-core hardware.
func BenchmarkProfileRates(b *testing.B) {
	fx := mainFixture(b)
	stages := fx.Sys.Params.Stages
	small := fx.Sets.Profile.Subset(firstN(fx.Sets.Profile.Len(), 128))
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := firing.ComputeWorkers(fx.Net, small, stages, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*small.Len())/b.Elapsed().Seconds(), "img/s")
		})
	}
}

// BenchmarkTrainStep measures one data-parallel optimizer step (batch 16,
// the reference training batch size) as the worker pool widens. The
// trainer splits every batch into the same 8 gradient shards regardless
// of workers, so the resulting weights are bit-identical across rows.
func BenchmarkTrainStep(b *testing.B) {
	fx := mainFixture(b)
	batch := firstN(fx.Sets.Train.Len(), 16)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			net, err := nn.BuildVGG(nn.DefaultVGGConfig(fx.Config.Synth.Classes))
			if err != nil {
				b.Fatal(err)
			}
			net.SetTraining(true)
			tr := train.NewTrainer(net, train.NewSGD(0.05, 0.9, 5e-4), workers, 1)
			defer tr.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Step(fx.Sets.Train, batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "img/s")
		})
	}
}

func firstN(total, n int) []int {
	if n > total {
		n = total
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func exampleRates() *firing.LayerRates {
	return &firing.LayerRates{Units: 3, Classes: 3, F: []float64{
		0.05, 0.30, 0.02,
		0.02, 0.03, 0.01,
		0.50, 0.60, 0.40,
	}}
}

// BenchmarkAblationEpsilon sweeps the ε budget (the central knob of
// Algorithms 1-2) against model size for CAP'NN-W.
func BenchmarkAblationEpsilon(b *testing.B) {
	fx := mainFixture(b)
	scale := benchScale()
	eps := []float64{0.02, 0.05, 0.08, 0.12, 0.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := exp.RunEpsilonAblation(fx, scale, eps, 3, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			exp.PrintEpsilonAblation(os.Stdout, rows, 3, scale)
		}
	}
}

// BenchmarkAblationQuantization compares pruning decisions under b-bit
// quantized firing rates against full precision (paper §V-C stores
// 3-bit codes).
func BenchmarkAblationQuantization(b *testing.B) {
	fx := mainFixture(b)
	scale := benchScale()
	bits := []int{1, 2, 3, 4, 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := exp.RunQuantAblation(fx, scale, bits, 3, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			exp.PrintQuantAblation(os.Stdout, rows, 3)
		}
	}
}

// BenchmarkClaims executes the paper-claim checklist (EXPERIMENTS.md) end
// to end against both fixtures.
func BenchmarkClaims(b *testing.B) {
	fx := mainFixture(b)
	c10 := cifarFixture(b)
	scale := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		claims, err := exp.CheckClaims(fx, c10, scale, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			exp.PrintClaims(os.Stdout, claims)
		}
	}
}

// BenchmarkAblationLstart sweeps how many trailing layers CAP'NN may
// prune (the paper's footnote-3 "last 6 layers" design choice).
func BenchmarkAblationLstart(b *testing.B) {
	fx := mainFixture(b)
	scale := benchScale()
	counts := []int{2, 3, 5, 8, 12}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := exp.RunLstartAblation(fx, scale, counts, 3, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			exp.PrintLstartAblation(os.Stdout, rows, 3, scale)
		}
	}
}

// BenchmarkGatewayRouting measures the cluster tier's two costs: the
// consistent-hash lookup on the gateway's hot path (which must not
// allocate — it runs once per request) and the end-to-end latency a
// gateway adds over talking to a serve node directly (client and
// gateway both keep their connections, so the extra hop is one extra
// gob round trip on localhost: ≈ 60 µs, about a tenth of a direct
// request on this fixture — compare alternating runs, the host drifts).
func BenchmarkGatewayRouting(b *testing.B) {
	b.Run("ring-lookup", func(b *testing.B) {
		nodes := make([]string, 16)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("10.0.0.%d:7879", i)
		}
		ring, err := cluster.NewRing(7, cluster.DefaultVirtualNodes, nodes)
		if err != nil {
			b.Fatal(err)
		}
		keys := make([]string, 64)
		for i := range keys {
			keys[i] = fmt.Sprintf("M/%016x", uint64(i)*2654435761)
		}
		var dst [3]string
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ring.LookupInto(keys[i%len(keys)], dst[:]) != 3 {
				b.Fatal("lookup returned wrong owner count")
			}
		}
	})

	fx := cifarFixture(b)
	srv := serve.NewServerWith(fx.Sys, serve.Config{DisableGuard: true})
	defer srv.Close()
	naddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	g, err := cluster.NewGateway([]string{naddr}, cluster.Config{Replication: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	gaddr, err := g.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	x1, _ := fx.Sets.Test.Batch([]int{0})
	req := serve.WireRequest{Version: cloud.ProtocolVersion, Variant: "M", Classes: []int{3, 7}, Input: x1.Data()}
	viaAddr := func(addr string) func(*testing.B) {
		return func(b *testing.B) {
			c := serve.NewClient(addr)
			defer c.Close()
			if resp, err := c.Infer(req); err != nil || resp.Code != cloud.CodeOK {
				b.Fatalf("warm: %v / %+v", err, resp)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := c.Infer(req)
				if err != nil || resp.Code != cloud.CodeOK {
					b.Fatalf("infer: %v / %+v", err, resp)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/req")
		}
	}
	b.Run("direct-serve", viaAddr(naddr))
	b.Run("via-gateway", viaAddr(gaddr))
}

// BenchmarkWireRoundTrip prices the wire around a forward pass on a
// frame shaped like the repo benchmark's (the cifar10 fixture's 1×32×32
// input out, 10 logits back) against a handler that does nothing:
// dial-per-call opens a socket for every request, persistent keeps one
// connection and its buffers, codec-only is the frame with no socket at
// all — the request appended, checksummed on both ends and decoded into a
// reused value (as a server's connection does) or a fresh one (what a
// client pays for a response of that size).
func BenchmarkWireRoundTrip(b *testing.B) {
	inputLen := cifarFixture(b).Sets.Test.ImageSize() // = the product of Net.InShape, the length the server checks
	req := serve.WireRequest{Version: cloud.ProtocolVersion, Variant: "M", Classes: []int{3, 7}, Input: make([]float64, inputLen)}
	rng := rand.New(rand.NewSource(1))
	for i := range req.Input {
		req.Input[i] = rng.NormFloat64()
	}
	answer := &serve.WireResponse{Version: cloud.ProtocolVersion, Code: cloud.CodeOK, Logits: req.Input[:10], Class: 3, CacheHit: true}
	srv := rpc.NewServer(
		rpc.Limits{ReadTimeout: time.Minute, WriteTimeout: time.Minute, MaxRequestBytes: 1 << 20},
		func(*serve.WireRequest) *serve.WireResponse { return answer },
		func(msg string) *serve.WireResponse { return &serve.WireResponse{Code: cloud.CodeBadRequest, Err: msg} })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(time.Minute)
	viaClient := func(maxIdle int) func(*testing.B) {
		return func(b *testing.B) {
			c := rpc.NewClient[serve.WireRequest, serve.WireResponse](addr, time.Second, maxIdle)
			defer c.Close()
			b.ReportAllocs()
			for i := 0; i < b.N+1; i++ { // iteration 0 warms the connection
				if i == 1 {
					b.ResetTimer()
				}
				if resp, err := c.Do(&req, time.Now().Add(time.Minute)); err != nil || len(resp.Logits) != 10 {
					b.Fatalf("round trip: %v / %+v", err, resp)
				}
			}
		}
	}
	b.Run("dial-per-call", viaClient(0))
	b.Run("persistent", viaClient(1))
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	codec := func(reuse bool) func(*testing.B) {
		return func(b *testing.B) {
			var frame []byte
			var got serve.WireRequest
			b.ReportAllocs()
			for i := 0; i < b.N+1; i++ { // iteration 0 grows the buffers
				if i == 1 {
					b.ResetTimer()
				}
				if !reuse {
					got = serve.WireRequest{}
				}
				frame = req.AppendWire(frame[:0])
				sent := crc32.Checksum(frame, castagnoli)
				if err := got.DecodeWire(frame); err != nil || crc32.Checksum(frame, castagnoli) != sent || len(got.Input) != len(req.Input) {
					b.Fatalf("decode: %v", err)
				}
			}
		}
	}
	b.Run("codec-only", codec(true))
	b.Run("codec-only/fresh", codec(false))
}
