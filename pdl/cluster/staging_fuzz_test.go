package cluster

import (
	"errors"
	"testing"
)

// FuzzSpanStaging checks stage and settle against a byte-by-byte model
// built on Locate alone: for any shard capacities, policy, span and set
// of failed legs, a write's staging buffers hold exactly the bytes the
// model places on each shard, a read's settle puts every byte of a
// healthy leg back where the model says it came from, and the confirmed
// count stops at the first byte whose shard failed while that shard's
// pieces of the destination stay untouched. Run as a CI smoke alongside
// FuzzDecodeClusterManifest.
func FuzzSpanStaging(f *testing.F) {
	f.Add([]byte{4, 8, 12}, false, uint16(11), uint16(100), uint8(0))
	f.Add([]byte{4, 8, 12}, false, uint16(0), uint16(0xFFFF), uint8(0b010))
	f.Add([]byte{8, 5, 9}, true, uint16(3), uint16(77), uint8(0b001))
	f.Add([]byte{1, 1, 15}, false, uint16(7), uint16(200), uint8(0b100))
	f.Add([]byte{3}, false, uint16(5), uint16(9), uint8(0))
	f.Add([]byte{2, 2, 2, 2, 2, 2}, true, uint16(1), uint16(90), uint8(0b101010))
	f.Fuzz(func(t *testing.T, caps []byte, roundRobin bool, off16, n16 uint16, failedMask uint8) {
		const unitBytes = 8
		if len(caps) < 1 || len(caps) > 6 {
			return
		}
		units := make([]int64, len(caps))
		for s, b := range caps {
			units[s] = 1 + int64(b%16)
		}
		policy := ByCapacity
		if roundRobin {
			policy = RoundRobin
		}
		c := testFanClient(t, unitBytes, units, policy)
		size := c.m.Size()
		off := int64(off16) % size
		n := 1 + int64(n16)%(size-off)

		// The model: where namespace byte b lives, and what each shard
		// holds at a local byte (never the sentinel).
		locate := func(b int64) (int, int64) {
			s, local := c.m.Locate(b / unitBytes)
			return s, local*unitBytes + b%unitBytes
		}
		disk := func(s int, local int64) byte { return byte(s*37+int(local)*5+1) & 0x7F }
		const sentinel = 0xFF
		failed := func(s int) bool { return failedMask>>s&1 == 1 }
		errLeg := errors.New("leg failed")
		// wantN is the byte count before the first byte on a failed shard.
		wantN, firstFailed := n, -1
		perShard := make([]int64, len(units))
		for i := int64(0); i < n; i++ {
			s, _ := locate(off + i)
			perShard[s]++
			if failed(s) && firstFailed < 0 {
				wantN, firstFailed = i, s
			}
		}
		fail := func(fo *fanout) {
			for s := range fo.legs {
				if fo.legs[s].touched && failed(s) {
					fo.legs[s].err = errLeg
				}
			}
		}
		checkSettle := func(dir string, cn int, err error) {
			t.Helper()
			if int64(cn) != wantN {
				t.Fatalf("%s: settle confirmed %d bytes, model says %d", dir, cn, wantN)
			}
			var se *ShardError
			switch {
			case firstFailed < 0 && err != nil:
				t.Fatalf("%s: settle failed with no failed leg: %v", dir, err)
			case firstFailed >= 0 && (!errors.As(err, &se) || se.Shard != firstFailed || !errors.Is(err, errLeg)):
				t.Fatalf("%s: settle error %v, want ShardError on shard %d", dir, err, firstFailed)
			}
		}

		// Write: each staging buffer is exactly the model's bytes for its
		// shard, in local order.
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i*13 + 7)
		}
		fo := c.getFan()
		c.stage(fo, off, n, p)
		for s := range fo.legs {
			if lg := &fo.legs[s]; lg.touched != (perShard[s] > 0) || lg.touched && int64(len(lg.buf)) != perShard[s] {
				t.Fatalf("write: shard %d touched=%v with %d staged bytes, model places %d", s, lg.touched, len(lg.buf), perShard[s])
			}
		}
		for i := int64(0); i < n; i++ {
			s, local := locate(off + i)
			lg := &fo.legs[s]
			if local < lg.lo || local >= lg.hi || lg.buf[local-lg.lo] != p[i] {
				t.Fatalf("write: byte %d (shard %d local %d) not staged at its place in [%d,%d)", off+i, s, local, lg.lo, lg.hi)
			}
		}
		fail(fo)
		cn, err := c.settle(fo, off, n, nil)
		checkSettle("write", cn, err)
		c.putFan(fo)

		// Read: fill each leg from the model's shards as run would, then
		// settle into a destination holding the sentinel.
		fo = c.getFan()
		c.stage(fo, off, n, nil)
		for s := range fo.legs {
			if lg := &fo.legs[s]; lg.touched {
				for j := range lg.buf {
					lg.buf[j] = disk(s, lg.lo+int64(j))
				}
			}
		}
		fail(fo)
		dst := make([]byte, n)
		for i := range dst {
			dst[i] = sentinel
		}
		cn, err = c.settle(fo, off, n, dst)
		checkSettle("read", cn, err)
		c.putFan(fo)
		for i := int64(0); i < n; i++ {
			s, local := locate(off + i)
			want := disk(s, local)
			if failed(s) {
				want = sentinel
			}
			if dst[i] != want {
				t.Fatalf("read: byte %d (shard %d, failed=%v) = %#x, want %#x", off+i, s, failed(s), dst[i], want)
			}
		}
	})
}
