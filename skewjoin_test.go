package skewjoin

import (
	"path/filepath"
	"sync"
	"testing"

	"skewjoin/internal/outbuf"
)

func TestJoinAllAlgorithmsAgree(t *testing.T) {
	r, s, err := GenerateZipfPair(20000, 0.9, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := Expected(r, s)
	if want.Matches == 0 {
		t.Fatal("workload produced no matches")
	}
	for _, alg := range Algorithms() {
		res, err := Join(alg, r, s, nil)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Summary() != want {
			t.Errorf("%s: got %+v, want %+v", alg, res.Summary(), want)
		}
		if res.Algorithm != alg {
			t.Errorf("result algorithm = %s, want %s", res.Algorithm, alg)
		}
		if res.Modelled != alg.IsGPU() {
			t.Errorf("%s: Modelled = %v", alg, res.Modelled)
		}
		if res.Total <= 0 || len(res.Phases) == 0 {
			t.Errorf("%s: empty timing: %+v", alg, res)
		}
	}
}

// TestEveryAlgorithmFeedsItsConsumers: Options.Consumer is honoured by
// every implementation — the consumers together receive exactly Matches
// rows, and those rows are the joined output (their checksum is the
// result's).
func TestEveryAlgorithmFeedsItsConsumers(t *testing.T) {
	r, s, err := GenerateZipfPair(1<<12, 0.8, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := Expected(r, s)
	for _, alg := range ExtendedAlgorithms() {
		var rows, sum uint64
		var mu sync.Mutex
		res, err := Join(alg, r, s, &Options{Threads: 2, Consumer: func(int) ResultConsumer {
			return func(batch []JoinResult) {
				mu.Lock()
				defer mu.Unlock()
				rows += uint64(len(batch))
				for _, x := range batch {
					sum += outbuf.ChecksumTerm(x.Key, x.PayloadR, x.PayloadS)
				}
			}
		}})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Summary() != want {
			t.Errorf("%s: summary %+v, oracle %+v", alg, res.Summary(), want)
		}
		if rows != res.Matches || sum != res.Checksum {
			t.Errorf("%s: consumers saw %d rows (checksum %#x) of %d matches (checksum %#x)",
				alg, rows, sum, res.Matches, res.Checksum)
		}
	}
}

func TestExtendedAlgorithmsIncludeSMJ(t *testing.T) {
	ext := ExtendedAlgorithms()
	if len(ext) != len(Algorithms())+3 || ext[len(ext)-3] != SMJ || ext[len(ext)-2] != GSMJ || ext[len(ext)-1] != SSJ {
		t.Fatalf("ExtendedAlgorithms = %v", ext)
	}
	for _, a := range Algorithms() {
		if a == SMJ || a == GSMJ || a == SSJ {
			t.Error("extensions must not be in the paper's algorithm set")
		}
	}
	r, s, err := GenerateZipfPair(20000, 0.9, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Join(SMJ, r, s, &Options{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary() != Expected(r, s) {
		t.Errorf("SMJ: got %+v", res.Summary())
	}
	if res.Modelled || res.Phase("sort") <= 0 || res.Phase("merge") <= 0 {
		t.Errorf("SMJ result malformed: %+v", res)
	}
}

func TestJoinUnknownAlgorithm(t *testing.T) {
	r, s, err := GenerateZipfPair(100, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Join("nope", r, s, nil); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestJoinOptionsRespected(t *testing.T) {
	r, s, err := GenerateZipfPair(20000, 0.95, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := Expected(r, s)
	opts := &Options{
		Threads: 2, Bits1: 4, Bits2: 3,
		SampleRate: 0.05, SkewThreshold: 3, TopK: 2,
		Device:    DeviceConfig{SharedMemBytes: 8 << 10, NumSMs: 16},
		OutBufCap: 64,
	}
	for _, alg := range Algorithms() {
		res, err := Join(alg, r, s, opts)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Summary() != want {
			t.Errorf("%s with options: got %+v, want %+v", alg, res.Summary(), want)
		}
	}
}

func TestResultPhaseLookup(t *testing.T) {
	r, s, err := GenerateZipfPair(5000, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Join(CSH, r, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, name := range []string{"sample", "partition", "nmjoin"} {
		d := res.Phase(name)
		if d <= 0 {
			t.Errorf("phase %q = %v", name, d)
		}
		sum += int64(d)
	}
	if sum != int64(res.Total) {
		t.Errorf("phase sum %d != total %d", sum, res.Total)
	}
	if res.Phase("nonexistent") != 0 {
		t.Error("missing phase returned non-zero")
	}
}

func TestGenerateZipfPairSharesUniverse(t *testing.T) {
	r, s, err := GenerateZipfPair(30000, 1.0, 11)
	if err != nil {
		t.Fatal(err)
	}
	rs, ss := Stats(r), Stats(s)
	if rs.MaxKey != ss.MaxKey {
		t.Errorf("top keys differ: %d vs %d — tables must share the interval array", rs.MaxKey, ss.MaxKey)
	}
}

func TestGenerateZipfValidation(t *testing.T) {
	if _, _, err := GenerateZipfPair(0, 0.5, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := GenerateZipf(100, -1, 1, 1); err == nil {
		t.Error("negative theta accepted")
	}
}

func TestGenerateZipfStreams(t *testing.T) {
	a, err := GenerateZipf(1000, 0.8, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateZipf(1000, 0.8, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Tuples {
		if a.Tuples[i] != b.Tuples[i] {
			t.Fatal("same stream not deterministic")
		}
	}
}

func TestNewRelationAndStats(t *testing.T) {
	r := NewRelation([]Key{1, 1, 2}, []Payload{10, 11, 12})
	st := Stats(r)
	if st.Tuples != 3 || st.DistinctKeys != 2 || st.MaxKeyFreq != 2 || st.MaxKey != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSaveLoadRelation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.skjr")
	r := NewRelation([]Key{9, 8}, []Payload{1, 2})
	if err := SaveRelation(r, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRelation(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Tuples[0] != r.Tuples[0] {
		t.Errorf("loaded %+v", got.Tuples)
	}
}

func TestExpectedSelfJoinLowerBound(t *testing.T) {
	// A self-join output is at least the table cardinality (every tuple
	// matches itself through its key group).
	r, _, err := GenerateZipfPair(10000, 0.7, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := Expected(r, r); got.Matches < uint64(r.Len()) {
		t.Errorf("self-join matches %d < %d tuples", got.Matches, r.Len())
	}
}

func TestIsGPU(t *testing.T) {
	gpu := map[Algorithm]bool{Cbase: false, CbaseNPJ: false, CSH: false, Gbase: true, GSH: true}
	for alg, want := range gpu {
		if alg.IsGPU() != want {
			t.Errorf("%s.IsGPU() = %v", alg, alg.IsGPU())
		}
	}
}

func TestDefaultThreadsPositive(t *testing.T) {
	if DefaultThreads() < 1 {
		t.Errorf("DefaultThreads = %d", DefaultThreads())
	}
}
