package memsim_test

import (
	"testing"

	"ctcomm/internal/machine"
	"ctcomm/internal/memsim"
	"ctcomm/internal/pattern"
)

// copyStreams lays out an xCy copy the way internal/xfer does: source
// at address 0, destination at 1 GiB, fixed permutation seeds for
// indexed sides.
func copyStreams(read, write pattern.Spec, words int) (r, w *pattern.Stream) {
	r = pattern.NewStream(read, 0, words)
	if read.Kind() == pattern.KindIndexed {
		r.WithIndex(pattern.Permutation(words, 0x5EED0001))
	}
	w = pattern.NewStream(write, 1<<30, words)
	if write.Kind() == pattern.KindIndexed {
		w.WithIndex(pattern.Permutation(words, 0x5EED0002))
	}
	return r, w
}

// referenceInterleave is the zip the deleted slice path used to build:
// payload words alternate read, write, each preceded by its own side's
// overhead loads. RunStream must schedule identically.
func referenceInterleave(reads, writes []pattern.Access) []pattern.Access {
	out := make([]pattern.Access, 0, len(reads)+len(writes))
	i, j := 0, 0
	for i < len(reads) || j < len(writes) {
		for i < len(reads) && reads[i].Overhead {
			out = append(out, reads[i])
			i++
		}
		if i < len(reads) {
			out = append(out, reads[i])
			i++
		}
		for j < len(writes) && writes[j].Overhead {
			out = append(out, writes[j])
			j++
		}
		if j < len(writes) {
			out = append(out, writes[j])
			j++
		}
	}
	return out
}

func TestCopyMatchesSlicePath(t *testing.T) {
	// The streaming xCy copy on every machine profile must be
	// bit-identical to interleaving materialized access slices and
	// running them through the slice reference Run.
	specs := []pattern.Spec{
		pattern.Contig(), pattern.Strided(64), pattern.StridedBlock(64, 2), pattern.Indexed(),
	}
	for _, m := range machine.Profiles() {
		for _, read := range specs {
			for _, write := range specs {
				words := 1 << 10
				rs, ws := copyStreams(read, write, words)
				ref := memsim.MustNew(m.Mem).Run(referenceInterleave(rs.Accesses(false), ws.Accesses(true)))
				got := memsim.MustNew(m.Mem).RunStream(rs, ws.ForWrites(), memsim.InterleaveWordwise)
				// The slice path never fast-forwards; the provenance flag
				// is outside the exactness contract (see memsim.Result).
				got.FastForwarded = false
				if got != ref {
					t.Errorf("%s %vC%v: RunStream %+v != Run %+v", m.Name, read, write, got, ref)
				}
			}
		}
	}
}
