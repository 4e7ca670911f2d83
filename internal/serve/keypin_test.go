package serve

import "testing"

// TestCacheKeyPins pins the serve/generate/v2 result-cache key to
// literal values. The durable store indexes finished results under
// these keys, so a warm restart after an upgrade finds its entries only
// if the derivation is byte-identical; a change here needs a key
// version bump, not new pins.
func TestCacheKeyPins(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  GenerateRequest
		want string
	}{
		{"bits only", GenerateRequest{Bits: 8}, "14db6c0618235e9683796803693ec193"},
		{"explicit defaults", GenerateRequest{Bits: 8, Style: "spiral", TechNode: "finfet12", FFT: "auto", ThetaSteps: 8, MaxParallel: 1}, "14db6c0618235e9683796803693ec193"},
		{"execution knobs ignored", GenerateRequest{Bits: 8, Workers: 3, Cache: "default"}, "14db6c0618235e9683796803693ec193"},
		{"parallel wires", GenerateRequest{Bits: 8, MaxParallel: 2}, "28eb199d7df1e124dcaa8906fdf14f89"},
		{"chessboard", GenerateRequest{Bits: 7, Style: "chessboard"}, "c952bf958365609b1ab7f8ce6d2defb7"},
		{"chessboard ignores bc and anneal", GenerateRequest{Bits: 7, Style: "chessboard", CoreBits: 4, BlockCells: 2, AnnealSeed: 5, AnnealMoves: 100}, "c952bf958365609b1ab7f8ce6d2defb7"},
		{"bc default structure", GenerateRequest{Bits: 8, Style: "block-chessboard"}, "40b7e3a14c43853bc713d12c99f91798"},
		{"bc with core and block", GenerateRequest{Bits: 8, Style: "block-chessboard", CoreBits: 4, BlockCells: 2}, "6af1a23afbc00d29efb7e7f9854a27be"},
		{"best bc", GenerateRequest{Bits: 8, BestBC: true}, "f3eacb98ffd9463b272075d7bf9bbb21"},
		{"best bc ignores style and structure", GenerateRequest{Bits: 8, BestBC: true, Style: "spiral", CoreBits: 4, BlockCells: 2}, "f3eacb98ffd9463b272075d7bf9bbb21"},
		{"skip nl", GenerateRequest{Bits: 6, SkipNonlinearity: true}, "ccaa26d1ba4b0aad3dc0a37ec4f0ea46"},
		{"skip nl ignores theta", GenerateRequest{Bits: 6, SkipNonlinearity: true, ThetaSteps: 16}, "ccaa26d1ba4b0aad3dc0a37ec4f0ea46"},
		{"theta steps", GenerateRequest{Bits: 6, ThetaSteps: 16}, "3ab7610b79fc43650f821dcd3dd3a3e9"},
		{"annealed", GenerateRequest{Bits: 6, Style: "annealed", AnnealSeed: 7, AnnealMoves: 5000}, "6c3ff706833105f5ed54959e191c0edc"},
		{"annealed defaults", GenerateRequest{Bits: 6, Style: "annealed"}, "dd359996d52ec0b064a54dfa2b15e278"},
		{"bulk65", GenerateRequest{Bits: 8, TechNode: "bulk65"}, "b8ebdc2a20d1a0242597ca7e8a3e1eef"},
		{"fft off", GenerateRequest{Bits: 8, FFT: "off"}, "c4370b454d4a39c2e8b3e1fe0136bbf0"},
		{"fft off skip nl", GenerateRequest{Bits: 10, FFT: "off", SkipNonlinearity: true}, "54fa93085d251c84ca709ff11a39b483"},
		{"twelve bits bc", GenerateRequest{Bits: 12, Style: "block-chessboard", CoreBits: 6, BlockCells: 4, MaxParallel: 3}, "a7af487763a5c2c18714c4873400b8cb"},
		{"everything", GenerateRequest{Bits: 9, Style: "annealed", AnnealSeed: -3, AnnealMoves: 1, MaxParallel: 8, ThetaSteps: 360, TechNode: "bulk65", FFT: "off"}, "d3f458d4b4e13974efa6cb379c940d80"},
	} {
		if got := cacheKey(tc.req); got != tc.want {
			t.Errorf("%s: cacheKey = %q, want %q", tc.name, got, tc.want)
		}
	}
}
