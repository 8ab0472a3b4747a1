package eval

import (
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/workload"
)

// modelFromBytes deterministically decodes a bounded synthetic model from a
// fuzz byte stream: metadata from the first bytes, then one layer per
// 6-byte chunk. Equal inputs decode to deeply equal models.
func modelFromBytes(raw []byte) *workload.Model {
	m := &workload.Model{Name: "fuzz", Class: workload.ClassCNN, Source: "fuzz"}
	if len(raw) > 0 {
		m.SeqLen = int(raw[0])
	}
	if len(raw) > 1 {
		m.ExtraParams = int64(raw[1])
	}
	for i := 2; i+5 < len(raw); i += 6 {
		m.Layers = append(m.Layers, workload.Layer{
			Kind:   workload.OpKind(int(raw[i]) % workload.NumOpKinds),
			IFMX:   int(raw[i+1])%64 + 1,
			IFMY:   int(raw[i+2])%64 + 1,
			NIFM:   int(raw[i+3])%256 + 1,
			NOFM:   int(raw[i+4])%256 + 1,
			KX:     int(raw[i+5])%7 + 1,
			KY:     int(raw[i+5])%7 + 1,
			OFMX:   int(raw[i+1])%64 + 1,
			OFMY:   int(raw[i+2])%64 + 1,
			Stride: 1,
		})
	}
	return m
}

// FuzzFingerprint proves the cache key's model half never collides: two
// models share a fingerprint exactly when they are structurally identical,
// and fingerprinting is deterministic.
func FuzzFingerprint(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2, 0, 10, 10, 3, 3, 3}, []byte{1, 2, 0, 10, 10, 3, 3, 3})
	f.Add([]byte{1, 2, 0, 10, 10, 3, 3, 3}, []byte{1, 2, 0, 10, 10, 3, 3, 4})
	f.Add([]byte{9, 9, 2, 1, 1, 1, 1, 1, 5, 2, 2, 2, 2, 2}, []byte{9, 9})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ma, mb := modelFromBytes(a), modelFromBytes(b)
		fa, fb := Fingerprint(ma), Fingerprint(mb)
		if fa != Fingerprint(modelFromBytes(a)) {
			t.Fatal("fingerprint is nondeterministic")
		}
		if same := reflect.DeepEqual(ma, mb); same != (fa == fb) {
			t.Fatalf("models DeepEqual=%v but fingerprints equal=%v\na=%#v\nb=%#v",
				same, fa == fb, ma, mb)
		}
	})
}

// configFromBytes deterministically decodes a bounded synthetic configuration
// and batch size from a fuzz byte stream.
func configFromBytes(raw []byte) (hw.Config, int) {
	get := func(i int) byte {
		if i < len(raw) {
			return raw[i]
		}
		return 0
	}
	dims := []int{16, 32, 64}
	c := hw.Config{Point: hw.Point{
		SASize: dims[int(get(0))%3],
		NSA:    dims[int(get(1))%3],
		NAct:   dims[int(get(2))%3],
		NPool:  dims[int(get(3))%3],
	}}
	// Unit membership from a bitmask over the unit kinds.
	c.Units = hw.UnitSet(get(4)) | hw.UnitSet(get(5))<<8
	if get(6)%2 == 1 {
		c.Precision = hw.Int16
	}
	return c, int(get(7))%8 + 1
}

// FuzzConfigKey proves the cache key's configuration half never collides:
// for one model, two (configuration, batch) pairs share the key the engine
// caches under (Evaluator.keyFor) exactly when they are identical.
func FuzzConfigKey(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 1, 2, 0, 255, 0, 0, 1}, []byte{0, 1, 2, 0, 255, 0, 0, 1})
	f.Add([]byte{0, 1, 2, 0, 255, 0, 0, 1}, []byte{0, 1, 2, 0, 255, 0, 1, 1})
	f.Add([]byte{2, 2, 2, 2, 8, 127, 0, 3}, []byte{2, 2, 2, 2, 16, 127, 0, 3})
	ev := New(Options{Workers: 1})
	m := workload.NewAlexNet()
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ca, batchA := configFromBytes(a)
		cb, batchB := configFromBytes(b)
		ka, kb := ev.keyFor(m, ca, batchA), ev.keyFor(m, cb, batchB)
		if again, _ := configFromBytes(a); ev.keyFor(m, again, batchA) != ka {
			t.Fatal("config key is nondeterministic")
		}
		same := ca == cb && batchA == batchB
		if same != (ka == kb) {
			t.Fatalf("configs identical=%v but keys equal=%v\na=%+v\nb=%+v", same, ka == kb, ka, kb)
		}
	})
}
