package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeEthernet, 65535)
	base := time.Unix(1700000000, 123456000).UTC()
	pkts := [][]byte{
		{0x01},
		bytes.Repeat([]byte{0xab}, 600),
		{},
	}
	for i, p := range pkts {
		if err := w.WritePacket(base.Add(time.Duration(i)*time.Millisecond), p); err != nil {
			t.Fatalf("WritePacket %d: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if r.Header().LinkType != LinkTypeEthernet || r.Header().SnapLen != 65535 {
		t.Errorf("header = %+v", r.Header())
	}
	for i, want := range pkts {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if !bytes.Equal(rec.Data, want) {
			t.Errorf("record %d data mismatch: %d vs %d bytes", i, len(rec.Data), len(want))
		}
		wantTS := base.Add(time.Duration(i) * time.Millisecond)
		if !rec.TS.Equal(wantTS) {
			t.Errorf("record %d ts = %v, want %v", i, rec.TS, wantTS)
		}
		if rec.OrigLen != uint32(len(want)) {
			t.Errorf("record %d origlen = %d", i, rec.OrigLen)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestSnapLenTruncates(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeEthernet, 64)
	big := bytes.Repeat([]byte{0x7f}, 1500)
	if err := w.WritePacket(time.Unix(0, 0), big); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Data) != 64 {
		t.Errorf("captured %d bytes, want 64", len(rec.Data))
	}
	if rec.OrigLen != 1500 {
		t.Errorf("origlen = %d, want 1500", rec.OrigLen)
	}
}

func TestBigEndianAndNanoMagic(t *testing.T) {
	// Hand-assemble a big-endian nanosecond file with one record.
	var buf bytes.Buffer
	hdr := make([]byte, globalHeaderLen)
	binary.BigEndian.PutUint32(hdr[0:4], MagicNanoseconds)
	binary.BigEndian.PutUint16(hdr[4:6], 2)
	binary.BigEndian.PutUint16(hdr[6:8], 4)
	binary.BigEndian.PutUint32(hdr[16:20], 65535)
	binary.BigEndian.PutUint32(hdr[20:24], LinkTypeRaw)
	buf.Write(hdr)
	rec := make([]byte, recordHeaderLen)
	binary.BigEndian.PutUint32(rec[0:4], 100)
	binary.BigEndian.PutUint32(rec[4:8], 999) // 999 ns
	binary.BigEndian.PutUint32(rec[8:12], 3)
	binary.BigEndian.PutUint32(rec[12:16], 3)
	buf.Write(rec)
	buf.Write([]byte{1, 2, 3})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Header().NanoRes || r.Header().LinkType != LinkTypeRaw {
		t.Errorf("header = %+v", r.Header())
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.TS.UnixNano() != 100*1e9+999 {
		t.Errorf("ts = %v", got.TS.UnixNano())
	}
}

func TestBadMagicRejected(t *testing.T) {
	buf := bytes.NewBuffer(make([]byte, globalHeaderLen))
	if _, err := NewReader(buf); err == nil {
		t.Fatal("zero magic accepted")
	}
}

func TestTruncatedRecordRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeEthernet, 65535)
	w.WritePacket(time.Unix(0, 0), []byte{1, 2, 3, 4})
	w.Flush()
	raw := buf.Bytes()
	// Cut the file mid-record.
	r, err := NewReader(bytes.NewReader(raw[:len(raw)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("truncated record accepted")
	}
	// Cut the file mid-record-header.
	r, err = NewReader(bytes.NewReader(raw[:globalHeaderLen+4]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Fatalf("mid-header truncation should be an error, got %v", err)
	}
}

func TestEmptyFileIsCleanEOF(t *testing.T) {
	var buf bytes.Buffer
	NewWriter(&buf, LinkTypeEthernet, 65535).Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want io.EOF on empty capture, got %v", err)
	}
}

// oversizedCapLen is a 48-byte capture whose single record claims 1.45 GB
// of captured data under a 1.4 GB snap length: a reader that trusts the
// length fields allocates the claimed size before discovering the file is
// truncated.
var oversizedCapLen = []byte{
	0xd4, 0xc3, 0xb2, 0xa1, 0x02, 0x00, 0x04, 0x00, // LE microsecond magic, v2.4
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // thiszone, sigfigs
	0x00, 0x00, 0x00, 0x58, 0x01, 0x00, 0x00, 0x00, // snaplen 0x58000000, Ethernet
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // ts
	0x56, 0x56, 0x56, 0x56, 0x56, 0x56, 0x56, 0x56, // caplen, origlen 0x56565656
	0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
}

func TestOversizedCapLenRejected(t *testing.T) {
	r, err := NewReader(bytes.NewReader(oversizedCapLen))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("caplen 0x56565656 under snaplen 0x58000000: got %v, want a length error", err)
	}
}

// TestCapLenBound pins the bound at min(snaplen, MaxSnapLen), with
// MaxSnapLen also applying when the header's snap length is 0.
func TestCapLenBound(t *testing.T) {
	for _, tc := range []struct {
		snapLen, capLen uint32
		ok              bool
	}{
		{0, MaxSnapLen, true},
		{0, MaxSnapLen + 1, false},
		{64, 64, true},
		{64, 65, false},
		{1 << 30, MaxSnapLen, true},
		{1 << 30, MaxSnapLen + 1, false},
	} {
		var buf bytes.Buffer
		hdr := make([]byte, globalHeaderLen+recordHeaderLen)
		binary.LittleEndian.PutUint32(hdr[0:4], MagicMicroseconds)
		binary.LittleEndian.PutUint32(hdr[16:20], tc.snapLen)
		binary.LittleEndian.PutUint32(hdr[globalHeaderLen+8:], tc.capLen)
		buf.Write(hdr)
		buf.Write(make([]byte, tc.capLen))
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := r.Next()
		if tc.ok && (err != nil || len(rec.Data) != int(tc.capLen)) {
			t.Errorf("snaplen %d caplen %d: got %d bytes, %v", tc.snapLen, tc.capLen, len(rec.Data), err)
		}
		if !tc.ok && err == nil {
			t.Errorf("snaplen %d caplen %d accepted", tc.snapLen, tc.capLen)
		}
	}
}

// FuzzReader feeds arbitrary bytes to the reader: it must return errors,
// never panic, and never hand back a record beyond the snap-length bound.
// The seed corpus under testdata/fuzz/FuzzReader replays as part of go test.
func FuzzReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		limit := r.Header().SnapLen
		if limit == 0 || limit > MaxSnapLen {
			limit = MaxSnapLen
		}
		for {
			rec, err := r.Next()
			if err != nil {
				return
			}
			if uint32(len(rec.Data)) > limit {
				t.Fatalf("record of %d bytes past bound %d", len(rec.Data), limit)
			}
		}
	})
}
