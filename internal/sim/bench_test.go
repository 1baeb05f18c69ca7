package sim

import "testing"

// BenchmarkAgenda measures one pop plus one push in steady state, with
// the heavy time ties of a congested network Batch: 256 payloads stay
// pending, spread over ~16 distinct times.
func BenchmarkAgenda(b *testing.B) {
	var a Agenda[int64]
	for i := int64(0); i < 256; i++ {
		a.Push(Time(i%16), i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := a.Pop()
		a.Push(a.Now()+Time(1+v%16), v+1)
	}
}
