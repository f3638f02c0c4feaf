package runtime

import (
	goruntime "runtime"
	"strings"
	"testing"

	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
)

// relayWorld builds a DES world whose "relay" action forwards a parcel
// to an LCG-chosen rank until its ttl runs out (the F17 hot potato), and
// returns a function that seeds one potato per rank and drains the
// engine, reporting the hops run.
func relayWorld(t *testing.T, ranks, ttl int) func() int {
	t.Helper()
	w, err := NewWorld(Config{Ranks: ranks, Mode: AGASNM, Engine: EngineDES})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	hops := 0
	relay := w.Register("relay", func(c *Ctx) {
		hops++
		pl := c.P.Payload
		left := parcel.U64(pl, 0)
		if left == 0 {
			return
		}
		state := parcel.U64(pl, 8)*6364136223846793005 + 1442695040888963407
		buf := parcel.PutU64(make([]byte, 0, 16), left-1)
		buf = parcel.PutU64(buf, state)
		c.Call(c.World().LocalityGVA(int(state>>33)%c.Ranks()), c.P.Action, buf)
	})
	w.Start()
	return func() int {
		hops = 0
		for r := 0; r < ranks; r++ {
			buf := parcel.PutU64(make([]byte, 0, 16), uint64(ttl))
			buf = parcel.PutU64(buf, uint64(r+1)*0x9E3779B97F4A7C15)
			w.Proc(r).Invoke(w.LocalityGVA((r+1)%ranks), relay, buf)
		}
		w.Engine().Run()
		return hops
	}
}

// TestDESRelayHopAllocs pins the allocation-free DES hop. A relay hop
// runs four engine events — the sender's inject, the wire arrival, the
// host delivery and the user-action body — and all four are typed
// (handler, *Message) events that allocate nothing. What remains per hop
// is the relay's own payload, the parcel encoding, the message and the
// decoded parcel: about 4 allocations. Capturing closures for the four
// events made it 8.
func TestDESRelayHopAllocs(t *testing.T) {
	const ranks, ttl = 64, 32
	round := relayWorld(t, ranks, ttl)
	round() // warm up: grow the event queue, maps and pools to steady size
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	hops := round()
	goruntime.ReadMemStats(&after)
	if want := ranks * (ttl + 1); hops != want {
		t.Fatalf("ran %d hops, want %d", hops, want)
	}
	perHop := float64(after.Mallocs-before.Mallocs) / float64(hops)
	t.Logf("%.2f allocations per relay hop", perHop)
	if perHop > 4.5 {
		t.Fatalf("%.2f allocations per DES relay hop, want <= 4.5", perHop)
	}
}

// TestDESUndecodableParcelFailsWorld pins the failure a malformed user
// parcel raises on DES now that delivery only peeks the action id and
// the decode runs in the action event: the world still fails at
// delivery with the "undecodable parcel" invariant.
func TestDESUndecodableParcelFailsWorld(t *testing.T) {
	corrupt := map[string]func([]byte) []byte{
		"truncated":       func(b []byte) []byte { return b[:len(b)-1] },
		"bad magic":       func(b []byte) []byte { b[0] ^= 0xFF; return b },
		"bad version":     func(b []byte) []byte { b[1]++; return b },
		"length mismatch": func(b []byte) []byte { b[42]++; return b },
	}
	for name, bad := range corrupt {
		t.Run(name, func(t *testing.T) {
			w, err := NewWorld(Config{Ranks: 2, Mode: AGASNM, Engine: EngineDES})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(w.Stop)
			ran := false
			act := w.Register("noop", func(*Ctx) { ran = true })
			w.Start()
			enc := parcel.Encode(&parcel.Parcel{Action: act, Target: w.LocalityGVA(1), Payload: []byte{1, 2, 3}})
			enc = bad(enc)
			w.locs[0].inject(&netsim.Message{
				Kind: kParcel, Src: 0, Target: w.LocalityGVA(1), Payload: enc, Wire: len(enc),
			}, 1)
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "rank 1: undecodable parcel: parcel: malformed encoding") {
					t.Fatalf("panic %v, want the undecodable parcel invariant", r)
				}
				if ran {
					t.Fatal("the malformed parcel's action ran")
				}
			}()
			w.Engine().Run()
		})
	}
}
