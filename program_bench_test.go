// BenchmarkProgramServe compares the three ways a client can run a
// whole iterative computation (a multi-level BFS) against the server:
//
//   - invoke: the program is registered once; every call POSTs only the
//     seed in an SPIV invoke envelope and the server loops.
//   - program: every call POSTs the full loop program (SPPG) to
//     /v1/program — one round trip, but the op list rides every time
//     and the server recompiles per call.
//   - client-loop: the classic chatty form — one /v1/mult round trip
//     per BFS level, with the client doing frontier bookkeeping.
//
// Each op is one complete BFS. Beyond ns/op the benchmark reports
// wirebytes/op (request+response body bytes) and recompiles/op (the
// dataflow compilation counter delta), which together pin the stored-
// procedure contract: warm invokes ship less wire than resending and
// compile nothing. CI uploads BENCH_program.json and cmd/benchcmp
// gates regressions.
package spmspv_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	spmspv "spmspv"
	"spmspv/internal/dataflow"
)

func BenchmarkProgramServe(b *testing.B) {
	a := spmspv.ErdosRenyi(1<<13, 8, 99)
	n := a.NumCols
	st := spmspv.NewStore(spmspv.WithEngineOptions(engineOptions(4)))
	if err := st.Put("g", a); err != nil {
		b.Fatal(err)
	}
	if _, err := st.Load("g"); err != nil {
		b.Fatal(err)
	}
	srv := spmspv.NewServer(st, spmspv.WithBatchSize(1))

	seed := spmspv.NewVector(n, 1)
	seed.Append(0, 0)
	const maxLevels = 64

	post := func(b *testing.B, path string, body []byte) ([]byte, int) {
		b.Helper()
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		r.Header.Set("Accept", spmspv.ContentTypeBinary)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("HTTP %d on %s: %s", w.Code, path, w.Body.String())
		}
		resp := w.Body.Bytes()
		return resp, len(body) + len(resp)
	}

	// Pre-encoded request bodies: the seed-only invoke and the full
	// program with the seed compiled in.
	var invokeBody, programBody bytes.Buffer
	err := spmspv.EncodeInvokeRequestBinary(&invokeBody, &spmspv.InvokeRequest{
		Args: map[string]*spmspv.Vector{"seed": seed},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := spmspv.EncodeProgramBinary(&programBody, spmspv.BFSProgram("g", maxLevels, seed)); err != nil {
		b.Fatal(err)
	}

	report := func(b *testing.B, wire, trips, compiles int64) {
		b.ReportMetric(float64(wire)/float64(b.N), "wirebytes/op")
		b.ReportMetric(float64(trips)/float64(b.N), "roundtrips/op")
		b.ReportMetric(float64(compiles)/float64(b.N), "recompiles/op")
	}

	b.Run("mode=invoke", func(b *testing.B) {
		if _, err := st.PutProgram("bfs", spmspv.BFSProgram("g", maxLevels, nil)); err != nil {
			b.Fatal(err)
		}
		defer st.DeleteProgram("bfs")
		base := dataflow.Compilations()
		var wire, trips int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, nb := post(b, "/v1/programs/bfs/invoke", invokeBody.Bytes())
			wire += int64(nb)
			trips++
		}
		b.StopTimer()
		if d := dataflow.Compilations() - base; d != 0 {
			b.Fatalf("warm invokes compiled %d programs, want 0", d)
		}
		report(b, wire, trips, dataflow.Compilations()-base)
	})

	b.Run("mode=program", func(b *testing.B) {
		base := dataflow.Compilations()
		var wire, trips int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, nb := post(b, "/v1/program", programBody.Bytes())
			wire += int64(nb)
			trips++
		}
		b.StopTimer()
		if d := dataflow.Compilations() - base; d != int64(b.N) {
			b.Fatalf("resent programs compiled %d times over %d calls", d, b.N)
		}
		report(b, wire, trips, dataflow.Compilations()-base)
	})

	b.Run("mode=client-loop", func(b *testing.B) {
		visited := make([]bool, n)
		var wire, trips int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range visited {
				visited[j] = false
			}
			visited[0] = true
			frontier := seed.Clone()
			for level := 0; level < maxLevels && frontier.NNZ() > 0; level++ {
				var body bytes.Buffer
				err := spmspv.EncodeRequestBinary(&body, &spmspv.Request{
					Matrix: "g",
					X:      frontier,
					Desc:   spmspv.Desc{Semiring: "bfs"},
				})
				if err != nil {
					b.Fatal(err)
				}
				respBytes, nb := post(b, "/v1/mult", body.Bytes())
				wire += int64(nb)
				trips++
				resp, err := spmspv.DecodeResponseBinary(bytes.NewReader(respBytes))
				if err != nil {
					b.Fatal(err)
				}
				next := spmspv.NewVector(n, resp.Y.NNZ())
				for k, idx := range resp.Y.Ind {
					if !visited[idx] {
						visited[idx] = true
						next.Append(idx, resp.Y.Val[k])
					}
				}
				frontier = next
			}
		}
		b.StopTimer()
		report(b, wire, trips, 0)
	})
}

// BenchmarkProgramPageRank invokes the stored PageRank program with the
// engine's unsorted list output (no SortOutput), so every iteration's
// ranks ∪ α·y merges the sorted rank vector with an unsorted product
// of up to n entries — the large-unsorted-operand shape of the union.
func BenchmarkProgramPageRank(b *testing.B) {
	a := spmspv.NormalizeColumns(spmspv.ErdosRenyi(1<<15, 8, 99))
	opt := spmspv.PageRankOptions{Damping: 0.85, Tol: 1e-9, MaxIter: 20}
	st := spmspv.NewStore(spmspv.WithEngineOptions(spmspv.Options{Threads: 1, HybridThreshold: 0.25}))
	if err := st.Put("g", a); err != nil {
		b.Fatal(err)
	}
	if _, err := st.PutProgram("pagerank", spmspv.PageRankProgram("g", opt, nil)); err != nil {
		b.Fatal(err)
	}
	inv := &spmspv.InvokeRequest{
		Args:    map[string]*spmspv.Vector{"seed": spmspv.PageRankSeed(a.NumCols, opt.Damping)},
		Scalars: map[string]float64{"damping": opt.Damping, "tol": opt.Tol},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := st.Invoke("pagerank", inv); err != nil {
			b.Fatal(err)
		}
	}
}
