package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// A server owning several partitions lists them in id order, so two
// identical info or routing-epoch requests get identical bytes.
func TestOwnedRepliesDeterministic(t *testing.T) {
	s, _, _, _ := seedServer(ServerConfig{Shards: 4, Advertise: "127.0.0.1:7001"})
	s.addMembers("127.0.0.1:7002")
	var wmu sync.Mutex
	for _, op := range []Op{opInfo, opEpoch} {
		var first []byte
		for i := 0; i < 50; i++ {
			c := &recConn{}
			s.serve(c, &reqSlot{id: 1, buf: []byte{byte(op)}}, &serverConn{}, &wmu)
			if i == 0 {
				first = c.buf
			} else if !bytes.Equal(c.buf, first) {
				t.Fatalf("%v reply %d differs from the first:\n%x\n%x", op, i, c.buf, first)
			}
		}
	}
}

// The op tables of docs/ARCHITECTURE.md — the wire table's code and name
// columns and the attempts table — say what the ops table says.
func TestDocsOpTables(t *testing.T) {
	f, err := os.Open("../../docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	wireRow := regexp.MustCompile("^\\| ([0-9]+)(?:–([0-9]+))? \\| ([^|]+) \\|")
	attemptsRow := regexp.MustCompile("^\\| ([^|]+) \\| ([0-9]+) \\|")
	named := regexp.MustCompile("`([^`]+)`")
	var wireNames [256]string
	tries := map[string]int{}
	table := ""
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "| op | name |"):
			table = "wire"
		case strings.HasPrefix(line, "| op | attempts |"):
			table = "attempts"
		case !strings.HasPrefix(line, "|"):
			table = ""
		case table == "wire":
			if m := wireRow.FindStringSubmatch(line); m != nil {
				lo, _ := strconv.Atoi(m[1])
				hi := lo
				if m[2] != "" {
					hi, _ = strconv.Atoi(m[2])
				}
				for code := lo; code <= hi; code++ {
					if wireNames[code] != "" {
						t.Errorf("wire table: code %d listed twice", code)
					}
					wireNames[code] = strings.TrimSpace(m[3])
				}
			}
		case table == "attempts":
			if m := attemptsRow.FindStringSubmatch(line); m != nil {
				n, _ := strconv.Atoi(m[2])
				for _, name := range named.FindAllStringSubmatch(m[1], -1) {
					if _, dup := tries[name[1]]; dup {
						t.Errorf("attempts table: %s listed twice", name[1])
					}
					tries[name[1]] = n
				}
			}
		}
	}
	served := 0
	for code := 1; code < len(wireNames); code++ {
		spec, doc := Op(code).spec(), wireNames[code]
		want := "`" + spec.name + "`"
		switch {
		case spec.serve != nil:
			served++
			if got := tries[spec.name]; got != spec.tries {
				t.Errorf("attempts table: %s makes %d attempts, documented as %d", spec.name, spec.tries, got)
			}
		case code < int(numOps):
			want = "*(retired)*"
		default:
			want = ""
		}
		if doc != want {
			t.Errorf("wire table: code %d is documented as %q, want %q", code, doc, want)
		}
	}
	if served == 0 || len(tries) != served {
		t.Errorf("attempts table lists %d ops, the ops table serves %d", len(tries), served)
	}
}

// sortedTriples is an accepted info frame with its owned triples stably
// sorted by id: what decodeInfo normalises a frame to.
func sortedTriples(frame []byte) []byte {
	const head = 20 // nodes, content dim, shards, strategy, triple count
	var triples [][]byte
	for at := head; at < len(frame); at += 12 {
		triples = append(triples, frame[at:at+12])
	}
	sort.SliceStable(triples, func(i, j int) bool {
		return binary.LittleEndian.Uint32(triples[i]) < binary.LittleEndian.Uint32(triples[j])
	})
	return append(frame[:head:head], bytes.Join(triples, nil)...)
}

// FuzzDecodeControlResponse: the info, reassign and members response
// decoders — op picks one — never panic, allocate at most a constant
// factor of the frame, fail only typed, and accept only frames they
// re-encode byte for byte, save that info's owned triples come back
// sorted by id.
func FuzzDecodeControlResponse(f *testing.F) {
	s, _, _, body := seedServer(ServerConfig{Shards: 3, Owned: []int{2, 0}, Advertise: "127.0.0.1:7001"})
	s.addMembers("127.0.0.1:7002")
	o := s.own.Load()
	f.Add(uint8(opInfo), body(s.handleInfo(o, nil, &serverConn{})))
	f.Add(uint8(opReassign), body(s.handleReassign(o, appendReassignRequest(nil, 2, false), &serverConn{})))
	f.Add(uint8(opMembers), body(s.handleMembers(o, appendMembersRequest(nil, "127.0.0.1:7003"), &serverConn{})))
	f.Fuzz(func(t *testing.T, op uint8, body []byte) {
		var err error
		var encode func() []byte
		decode := func() {
			switch Op(op) {
			case opInfo:
				var info Info
				info, err = decodeInfo(body)
				encode = func() []byte { return appendInfo(nil, info) }
			case opReassign:
				var epoch uint64
				epoch, err = decodeReassignResponse(body)
				encode = func() []byte { return appendU64(nil, epoch) }
			case opMembers:
				var members []string
				members, err = decodeMembersResponse(body)
				encode = func() []byte { return appendAddrList(nil, members) }
			}
		}
		if got := allocatedBy(decode); got > 16*uint64(len(body))+1<<14 {
			t.Fatalf("allocated %d bytes decoding a %d-byte frame", got, len(body))
		}
		if encode == nil {
			return // not a control op
		}
		if err != nil {
			if !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		want := body
		if Op(op) == opInfo {
			want = sortedTriples(body)
		}
		if again := encode(); !bytes.Equal(again, want) {
			t.Fatalf("accepted %v response does not re-encode to itself:\n%x\n%x", Op(op), again, want)
		}
	})
}
