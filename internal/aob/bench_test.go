package aob

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel benchmarks at the three widths that matter: the student hardware
// (8), an intermediate (12), and the paper's Qat (16, 1024 words). The
// repository benchmark (bench/) reports the 16-way kernels as its aob.*
// per-layer metrics; these exist for benchstat-style iteration during
// development.

var benchWays = []int{8, 12, 16}

func benchVectors(ways int, n int) []*Vector {
	r := rand.New(rand.NewSource(int64(ways) * 7919))
	out := make([]*Vector, n)
	for i := range out {
		out[i] = randVector(r, ways)
	}
	return out
}

func benchBytes(b *testing.B, ways int) {
	b.SetBytes(int64(wordsFor(ways)) * 8)
}

func BenchmarkAoBAnd(b *testing.B) {
	for _, ways := range benchWays {
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			vs := benchVectors(ways, 3)
			benchBytes(b, ways)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vs[0].And(vs[1], vs[2])
			}
		})
	}
}

func BenchmarkAoBOr(b *testing.B) {
	for _, ways := range benchWays {
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			vs := benchVectors(ways, 3)
			benchBytes(b, ways)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vs[0].Or(vs[1], vs[2])
			}
		})
	}
}

func BenchmarkAoBXor(b *testing.B) {
	for _, ways := range benchWays {
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			vs := benchVectors(ways, 3)
			benchBytes(b, ways)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vs[0].Xor(vs[1], vs[2])
			}
		})
	}
}

func BenchmarkAoBNot(b *testing.B) {
	for _, ways := range benchWays {
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			vs := benchVectors(ways, 1)
			benchBytes(b, ways)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vs[0].Not()
			}
		})
	}
}

func BenchmarkAoBCNot(b *testing.B) {
	for _, ways := range benchWays {
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			vs := benchVectors(ways, 2)
			benchBytes(b, ways)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vs[0].CNot(vs[1])
			}
		})
	}
}

func BenchmarkAoBCCNot(b *testing.B) {
	for _, ways := range benchWays {
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			vs := benchVectors(ways, 3)
			benchBytes(b, ways)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vs[0].CCNot(vs[1], vs[2])
			}
		})
	}
}

func BenchmarkAoBSwap(b *testing.B) {
	for _, ways := range benchWays {
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			vs := benchVectors(ways, 2)
			benchBytes(b, ways)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vs[0].Swap(vs[1])
			}
		})
	}
}

func BenchmarkAoBCSwap(b *testing.B) {
	for _, ways := range benchWays {
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			vs := benchVectors(ways, 3)
			benchBytes(b, ways)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vs[0].CSwap(vs[1], vs[2])
			}
		})
	}
}

func BenchmarkAoBHad(b *testing.B) {
	for _, ways := range benchWays {
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			v := New(ways)
			benchBytes(b, ways)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.Had(i % ways)
			}
		})
	}
}

func BenchmarkAoBNext(b *testing.B) {
	for _, ways := range benchWays {
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			// A sparse vector: Next has to scan, not stop at word 0.
			v := New(ways)
			v.Set(v.Channels()-1, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v.Next(0) == 0 {
					b.Fatal("next lost the set channel")
				}
			}
		})
	}
}

func BenchmarkAoBPop(b *testing.B) {
	for _, ways := range benchWays {
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			vs := benchVectors(ways, 1)
			benchBytes(b, ways)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if vs[0].Pop() > vs[0].Channels() {
					b.Fatal("impossible pop")
				}
			}
		})
	}
}

func BenchmarkAoBPopAfter(b *testing.B) {
	for _, ways := range benchWays {
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			vs := benchVectors(ways, 1)
			benchBytes(b, ways)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if vs[0].PopAfter(1) > vs[0].Channels() {
					b.Fatal("impossible popAfter")
				}
			}
		})
	}
}

func BenchmarkAoBAll(b *testing.B) {
	for _, ways := range benchWays {
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			v := OneVector(ways)
			benchBytes(b, ways)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !v.All() {
					b.Fatal("all-ones vector failed All")
				}
			}
		})
	}
}
