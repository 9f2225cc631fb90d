package properties

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
	"time"
)

func TestMapToMeasurements(t *testing.T) {
	for _, p := range All {
		req, err := MapToMeasurements(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(req.Kinds) == 0 {
			t.Fatalf("%s maps to no measurements", p)
		}
	}
	if _, err := MapToMeasurements(Property("bogus")); err == nil {
		t.Fatal("bogus property mapped")
	}
}

func TestRuntimePropertiesHaveWindows(t *testing.T) {
	for _, p := range []Property{CovertChannelFreedom, CPUAvailability} {
		req, _ := MapToMeasurements(p)
		if req.Window <= 0 {
			t.Errorf("%s has no observation window", p)
		}
	}
}

func TestValid(t *testing.T) {
	for _, p := range All {
		if !Valid(p) {
			t.Errorf("%s reported invalid", p)
		}
	}
	if Valid("nope") {
		t.Error("invalid property reported valid")
	}
}

func TestMeasurementEncodeDistinguishesKinds(t *testing.T) {
	a := Measurement{Kind: KindTaskList, Tasks: []string{"init"}}
	b := Measurement{Kind: KindCPUTime, CPUTime: time.Second}
	if bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("different measurements encode identically")
	}
}

func TestMeasurementEncodeInjective(t *testing.T) {
	// Task-list boundary attack: ["ab","c"] vs ["a","bc"].
	a := Measurement{Kind: KindTaskList, Tasks: []string{"ab", "c"}}
	b := Measurement{Kind: KindTaskList, Tasks: []string{"a", "bc"}}
	if bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("task-list encoding is not injective")
	}
}

func TestQuickMeasurementEncodeDeterministic(t *testing.T) {
	f := func(tasks []string, counters []uint64, cpu uint32) bool {
		m := Measurement{Kind: KindIntervalHistogram, Tasks: tasks, Counters: counters, CPUTime: time.Duration(cpu)}
		return bytes.Equal(m.Encode(), m.Encode())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCounterSensitivity(t *testing.T) {
	f := func(counters []uint64) bool {
		if len(counters) == 0 {
			return true
		}
		m := Measurement{Kind: KindIntervalHistogram, Counters: counters}
		enc := m.Encode()
		mod := append([]uint64(nil), counters...)
		mod[0]++
		m2 := Measurement{Kind: KindIntervalHistogram, Counters: mod}
		return !bytes.Equal(enc, m2.Encode())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeAllLengthSensitive(t *testing.T) {
	m := Measurement{Kind: KindTaskList, Tasks: []string{"x"}}
	one := EncodeAll([]Measurement{m})
	two := EncodeAll([]Measurement{m, m})
	if bytes.Equal(one, two) {
		t.Fatal("EncodeAll insensitive to list length")
	}
}

// referenceEncode is the measurement encoding written field by field into
// a growing buffer, as the canonical form is specified; the sized encoder
// must produce the same bytes, since signed evidence and Q3 quotes hash
// them.
func referenceEncode(m Measurement) []byte {
	var out []byte
	appendBytes := func(b []byte) {
		out = binary.BigEndian.AppendUint32(out, uint32(len(b)))
		out = append(out, b...)
	}
	appendBytes([]byte(m.Kind))
	appendBytes(m.Digest[:])
	out = binary.BigEndian.AppendUint32(out, uint32(len(m.LogNames)))
	for i, n := range m.LogNames {
		appendBytes([]byte(n))
		if i < len(m.LogSums) {
			appendBytes(m.LogSums[i][:])
		} else {
			appendBytes(nil)
		}
	}
	appendBytes(m.QuoteSig)
	out = binary.BigEndian.AppendUint32(out, uint32(len(m.QuotePCR)))
	for i, p := range m.QuotePCR {
		out = binary.BigEndian.AppendUint32(out, p)
		if i < len(m.QuoteVal) {
			appendBytes(m.QuoteVal[i][:])
		} else {
			appendBytes(nil)
		}
	}
	out = binary.BigEndian.AppendUint32(out, uint32(len(m.Tasks)))
	for _, t := range m.Tasks {
		appendBytes([]byte(t))
	}
	out = binary.BigEndian.AppendUint32(out, uint32(len(m.Counters)))
	for _, c := range m.Counters {
		out = binary.BigEndian.AppendUint64(out, c)
	}
	out = binary.BigEndian.AppendUint64(out, uint64(m.CPUTime))
	out = binary.BigEndian.AppendUint64(out, uint64(m.WallTime))
	appendBytes(m.Report)
	appendBytes(m.VKey)
	appendBytes(m.Endorse)
	return out
}

func TestQuickEncodeMatchesReference(t *testing.T) {
	f := func(ms []Measurement) bool {
		want := binary.BigEndian.AppendUint32(nil, uint32(len(ms)))
		for _, m := range ms {
			enc := referenceEncode(m)
			if !bytes.Equal(m.Encode(), enc) || cap(m.Encode()) != len(enc) {
				return false
			}
			want = binary.BigEndian.AppendUint32(want, uint32(len(enc)))
			want = append(want, enc...)
		}
		got := EncodeAll(ms)
		return bytes.Equal(got, want) && cap(got) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRequestEncode(t *testing.T) {
	a := Request{Kinds: []MeasurementKind{KindTaskList}, Window: time.Second}
	b := Request{Kinds: []MeasurementKind{KindTaskList}, Window: 2 * time.Second}
	if bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("request encoding ignores window")
	}
	c := Request{Kinds: []MeasurementKind{KindCPUTime}, Window: time.Second}
	if bytes.Equal(a.Encode(), c.Encode()) {
		t.Fatal("request encoding ignores kinds")
	}
}

func TestVerdictEncodeAndString(t *testing.T) {
	v := Verdict{Property: CPUAvailability, Healthy: true, Reason: "ok"}
	w := Verdict{Property: CPUAvailability, Healthy: false, Reason: "ok"}
	if bytes.Equal(v.Encode(), w.Encode()) {
		t.Fatal("verdict encoding ignores health bit")
	}
	if got := v.String(); got == "" || got == w.String() {
		t.Fatal("verdict String not distinguishing")
	}
}
