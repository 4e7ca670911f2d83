package jobs

import "testing"

// TestPrefixKeyPins pins the jobs/prefix/v1 coalescing key to literal
// values, so a change in how specs are canonicalized cannot silently
// split (or wrongly merge) compatibility groups.
func TestPrefixKeyPins(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		want string
	}{
		{"bits only", Spec{Kind: KindYield, Bits: 8, SpecINL: 0.01}, "4534a5d9b109b7bd1ddfe8db9d7425b3"},
		{"explicit defaults", Spec{Kind: KindYield, Bits: 8, SpecINL: 0.01, Style: "spiral", TechNode: "finfet12", FFT: "auto", MaxParallel: 1}, "4534a5d9b109b7bd1ddfe8db9d7425b3"},
		{"tail fields ignored", Spec{Kind: KindYield, Bits: 8, SpecINL: 0.5, SpecDNL: 0.2, Samples: 7, Seed: 99, ThetaDeg: 30, CheckpointEvery: 3, Priority: "background"}, "4534a5d9b109b7bd1ddfe8db9d7425b3"},
		{"generate tail ignored", Spec{Kind: KindYield, Bits: 8, SpecINL: 0.01, ThetaSteps: 16, SkipNonlinearity: true, BestBC: true}, "4534a5d9b109b7bd1ddfe8db9d7425b3"},
		{"parallel wires", Spec{Kind: KindYield, Bits: 8, SpecINL: 0.01, MaxParallel: 2}, "fe1fd91cf8d4cfca0d2320f78cc9b1ad"},
		{"chessboard", Spec{Kind: KindYield, Bits: 7, SpecINL: 0.01, Style: "chessboard"}, "78dc6cd43609d5421a5a77d17b54d693"},
		{"chessboard ignores bc and anneal", Spec{Kind: KindYield, Bits: 7, SpecINL: 0.01, Style: "chessboard", CoreBits: 4, BlockCells: 2, AnnealSeed: 5, AnnealMoves: 100}, "78dc6cd43609d5421a5a77d17b54d693"},
		{"bc default structure", Spec{Kind: KindYield, Bits: 8, SpecINL: 0.01, Style: "block-chessboard"}, "7e1b4083cff82a598d0d74901ea6dc76"},
		{"bc with core and block", Spec{Kind: KindYield, Bits: 8, SpecINL: 0.01, Style: "block-chessboard", CoreBits: 4, BlockCells: 2}, "66a4fe5eb777af7671d7ede9bb133040"},
		{"annealed", Spec{Kind: KindYield, Bits: 6, SpecINL: 0.01, Style: "annealed", AnnealSeed: 7, AnnealMoves: 5000}, "ef1cf1f44e8772672c9c179572ce0b4e"},
		{"annealed defaults", Spec{Kind: KindYield, Bits: 6, SpecINL: 0.01, Style: "annealed"}, "3d1d0ba3f591e94c056191e9915f9912"},
		{"bulk65", Spec{Kind: KindYield, Bits: 8, SpecINL: 0.01, TechNode: "bulk65"}, "213581fc036aa699205a87eb37519863"},
		{"fft off", Spec{Kind: KindYield, Bits: 8, SpecINL: 0.01, FFT: "off"}, "785e0c4b928cc9144d279c8257a30c90"},
		{"ten bits", Spec{Kind: KindYield, Bits: 10, SpecINL: 0.002}, "9b96aa05019ec8ac349fd007b245e1b1"},
		{"twelve bits bc", Spec{Kind: KindYield, Bits: 12, SpecINL: 0.01, Style: "block-chessboard", CoreBits: 6, BlockCells: 4, MaxParallel: 3}, "9798a8807d348f19d10e1e65e30c7f87"},
		{"generate kind", Spec{Kind: KindGenerate, Bits: 8, ThetaSteps: 4}, "4534a5d9b109b7bd1ddfe8db9d7425b3"},
		{"generate kind bulk65 fft off", Spec{Kind: KindGenerate, Bits: 8, TechNode: "bulk65", FFT: "off", SkipNonlinearity: true}, "0feda32ff32ac1b5ea036de0aa65d420"},
		{"everything", Spec{Kind: KindYield, Bits: 9, SpecINL: 0.01, Style: "annealed", AnnealSeed: -3, AnnealMoves: 1, MaxParallel: 8, TechNode: "bulk65", FFT: "off"}, "52014faafe868e4e18b073ef47330efb"},
	} {
		if got := tc.spec.withDefaults().prefixKey(); got != tc.want {
			t.Errorf("%s: prefixKey = %q, want %q", tc.name, got, tc.want)
		}
	}
}
