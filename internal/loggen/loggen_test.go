package loggen

import (
	"math"
	"strings"
	"testing"

	"zoomer/internal/tensor"
)

func tinyLogs(t *testing.T) *Logs {
	t.Helper()
	return MustGenerate(TaobaoConfig(ScaleTiny, 42))
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{},
		{Users: 1, Queries: 1, Items: 1}, // no topics
		{Users: 1, Queries: 1, Items: 1, Topics: 1},                // no dim
		{Users: 1, Queries: 1, Items: 1, Topics: 1, ContentDim: 2}, // no sessions
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d should be invalid", i)
		}
	}
	good := TaobaoConfig(ScaleTiny, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("preset invalid: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	a := MustGenerate(TaobaoConfig(ScaleTiny, 7))
	b := MustGenerate(TaobaoConfig(ScaleTiny, 7))
	if len(a.Sessions) != len(b.Sessions) {
		t.Fatal("session counts differ for same seed")
	}
	for i := range a.Sessions {
		if a.Sessions[i].User != b.Sessions[i].User ||
			len(a.Sessions[i].Events) != len(b.Sessions[i].Events) {
			t.Fatal("sessions differ for same seed")
		}
	}
	c := MustGenerate(TaobaoConfig(ScaleTiny, 8))
	if len(a.Sessions) == len(c.Sessions) && a.NumInteractions() == c.NumInteractions() {
		t.Log("warning: different seeds produced identical summary; checking details")
		same := true
		for i := range a.Sessions {
			if i >= len(c.Sessions) || a.Sessions[i].User != c.Sessions[i].User {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical worlds")
		}
	}
}

func TestWorldShape(t *testing.T) {
	l := tinyLogs(t)
	cfg := l.Config
	if len(l.Users) != cfg.Users || len(l.Queries) != cfg.Queries || len(l.Items) != cfg.Items {
		t.Fatal("node counts wrong")
	}
	if len(l.Topics) != cfg.Topics {
		t.Fatal("topic count wrong")
	}
	for _, v := range l.Topics {
		if math.Abs(float64(tensor.Norm2(v))-1) > 1e-4 {
			t.Fatal("topic vectors must be unit norm")
		}
	}
	if len(l.Sessions) == 0 || l.NumInteractions() == 0 {
		t.Fatal("no sessions generated")
	}
}

func TestUserMixturesNormalized(t *testing.T) {
	l := tinyLogs(t)
	for u, meta := range l.Users {
		var sum float32
		for _, w := range meta.TopicWeights {
			if w < 0 {
				t.Fatalf("user %d negative weight", u)
			}
			sum += w
		}
		if math.Abs(float64(sum)-1) > 1e-4 {
			t.Fatalf("user %d weights sum to %v", u, sum)
		}
		if len(meta.FeatureIDs) != 3 {
			t.Fatalf("user features = %v", meta.FeatureIDs)
		}
	}
}

func TestItemAndQueryFeatures(t *testing.T) {
	l := tinyLogs(t)
	for i, m := range l.Items {
		if len(m.FeatureIDs) != 4 {
			t.Fatalf("item %d features = %v", i, m.FeatureIDs)
		}
		if m.FeatureIDs[0] != int32(i) {
			t.Fatal("item id feature must equal index")
		}
		if m.Topic < 0 || m.Topic >= l.Config.Topics {
			t.Fatal("item topic out of range")
		}
		if len(m.TitleTerms) == 0 {
			t.Fatal("item has no title terms")
		}
	}
	for q, m := range l.Queries {
		if len(m.FeatureIDs) != 1 || m.FeatureIDs[0] != int32(m.Topic) {
			t.Fatalf("query %d category feature wrong", q)
		}
	}
}

// Clicked items must be on the intent topic far more often than the noise
// rate would suggest at random.
func TestClicksFollowIntent(t *testing.T) {
	l := MustGenerate(TaobaoConfig(ScaleSmall, 3))
	onTopic, total := 0, 0
	for _, s := range l.Sessions {
		for _, ev := range s.Events {
			for _, c := range ev.Clicks {
				if l.Items[c.Item].Topic == ev.Topic {
					onTopic++
				}
				total++
			}
		}
	}
	frac := float64(onTopic) / float64(total)
	// NoiseClick=0.2, so ≥ ~75% should be on topic (noise can land on
	// topic by chance too).
	if frac < 0.7 {
		t.Fatalf("only %.2f of clicks on intent topic", frac)
	}
}

// Successive queries within a session should frequently change topic —
// the Fig. 4b phenomenon the drift parameter creates.
func TestIntentDriftHappens(t *testing.T) {
	l := MustGenerate(TaobaoConfig(ScaleSmall, 4))
	changes, pairs := 0, 0
	for _, s := range l.Sessions {
		for i := 1; i < len(s.Events); i++ {
			if s.Events[i].Topic != s.Events[i-1].Topic {
				changes++
			}
			pairs++
		}
	}
	if pairs == 0 {
		t.Fatal("no multi-query sessions")
	}
	frac := float64(changes) / float64(pairs)
	if frac < 0.3 {
		t.Fatalf("topic change rate %.2f too low for drift=0.55", frac)
	}
}

// Item popularity must be heavy-tailed: the most clicked decile should
// hold a disproportionate share of clicks.
func TestPopularitySkew(t *testing.T) {
	l := MustGenerate(TaobaoConfig(ScaleSmall, 5))
	counts := make([]int, len(l.Items))
	total := 0
	for _, s := range l.Sessions {
		for _, ev := range s.Events {
			for _, c := range ev.Clicks {
				counts[c.Item]++
				total++
			}
		}
	}
	// Count clicks on the top-10% most clicked items.
	top := make([]int, len(counts))
	copy(top, counts)
	// simple selection of decile via sort
	for i := 0; i < len(top); i++ {
		for j := i + 1; j < len(top); j++ {
			if top[j] > top[i] {
				top[i], top[j] = top[j], top[i]
			}
		}
		if i > len(top)/10 {
			break
		}
	}
	headClicks := 0
	for i := 0; i <= len(top)/10; i++ {
		headClicks += top[i]
	}
	if float64(headClicks)/float64(total) < 0.3 {
		t.Fatalf("top decile holds only %.2f of clicks; want heavy tail", float64(headClicks)/float64(total))
	}
}

func TestScalesOrdered(t *testing.T) {
	small := TaobaoConfig(ScaleSmall, 1)
	medium := TaobaoConfig(ScaleMedium, 1)
	large := TaobaoConfig(ScaleLarge, 1)
	totalNodes := func(c Config) int { return c.Users + c.Queries + c.Items }
	if !(totalNodes(small) < totalNodes(large)) {
		t.Fatal("scales not ordered")
	}
	// Medium and large are user-heavy per the paper; small is item-heavy.
	if small.Items <= small.Users {
		t.Fatal("million-scale should be item-heavy")
	}
	if medium.Users <= medium.Items {
		t.Fatal("hundred-million-scale should be user-heavy")
	}
	if large.Items <= large.Users {
		// billion-scale has 570M items vs 340M users: item-heavy again.
		t.Fatal("billion-scale should be item-heavy")
	}
}

func TestScaleNames(t *testing.T) {
	for _, c := range []struct {
		flag, paper string
		want        Scale
	}{
		{"tiny", "tiny", ScaleTiny},
		{"small", "million-scale", ScaleSmall},
		{"medium", "hundred-million-scale", ScaleMedium},
		{"large", "billion-scale", ScaleLarge},
	} {
		got, err := ParseScale(c.flag)
		if err != nil || got != c.want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", c.flag, got, err, c.want)
		}
		if got.String() != c.paper {
			t.Errorf("%v.String() = %q, want %q", c.want, got.String(), c.paper)
		}
		if back, err := ParseScale(got.String()); err != nil || back != c.want {
			t.Errorf("ParseScale(%q) = %v, %v; String does not round-trip", got.String(), back, err)
		}
	}
	_, err := ParseScale("bogus")
	if err == nil {
		t.Fatal("ParseScale accepted an unknown scale")
	}
	for _, name := range []string{"bogus", "tiny", "small", "medium", "large"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %q", err, name)
		}
	}
}

func TestTopicLookups(t *testing.T) {
	l := tinyLogs(t)
	for topic := 0; topic < l.Config.Topics; topic++ {
		if len(l.ItemsOfTopic(topic)) == 0 {
			t.Fatalf("topic %d has no items", topic)
		}
		if len(l.QueriesOfTopic(topic)) == 0 {
			t.Fatalf("topic %d has no queries", topic)
		}
	}
}

func TestBuildExamples(t *testing.T) {
	l := tinyLogs(t)
	ds := BuildExamples(l, 2, 0.2, 9)
	if len(ds.Train) == 0 || len(ds.Test) == 0 {
		t.Fatalf("empty split: train=%d test=%d", len(ds.Train), len(ds.Test))
	}
	pos, neg := 0, 0
	for _, e := range append(append([]Example{}, ds.Train...), ds.Test...) {
		if e.User < 0 || e.User >= len(l.Users) || e.Item < 0 || e.Item >= len(l.Items) ||
			e.Query < 0 || e.Query >= len(l.Queries) {
			t.Fatal("example index out of range")
		}
		if e.Label == 1 {
			pos++
		} else {
			neg++
		}
	}
	// negPerPos = 2 means roughly 2 negatives per positive.
	ratio := float64(neg) / float64(pos)
	if math.Abs(ratio-2) > 0.2 {
		t.Fatalf("neg/pos ratio = %v, want ~2", ratio)
	}
}

func TestSplitIsGroupedByUserQuery(t *testing.T) {
	l := tinyLogs(t)
	ds := BuildExamples(l, 1, 0.3, 11)
	trainPairs := map[[2]int]bool{}
	for _, e := range ds.Train {
		trainPairs[[2]int{e.User, e.Query}] = true
	}
	for _, e := range ds.Test {
		if trainPairs[[2]int{e.User, e.Query}] {
			t.Fatal("user-query pair appears in both splits")
		}
	}
}

func TestMovieLensConfig(t *testing.T) {
	cfg := MovieLensConfig(1)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("MovieLens preset invalid: %v", err)
	}
	// Tags (queries) must be far fewer than users and movies, per the
	// MovieLens structure.
	if cfg.Queries >= cfg.Users || cfg.Queries >= cfg.Items {
		t.Fatal("MovieLens preset should be tag-sparse")
	}
	l := MustGenerate(cfg)
	if len(l.Sessions) == 0 {
		t.Fatal("MovieLens world has no interactions")
	}
}

func BenchmarkGenerateSmall(b *testing.B) {
	cfg := TaobaoConfig(ScaleSmall, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MustGenerate(cfg)
	}
}
