// Package loggen generates synthetic user-behavior logs with the
// statistical structure the paper measures on Taobao data: power-law
// item/query popularity, per-user long-term interest mixtures, session
// structure with drifting focal intent (Fig. 4b), and noisy implicit
// feedback whose relevance to any single focal interest is low (Fig. 4c).
//
// It is the stand-in for the proprietary Taobao logs and for MovieLens
// 25M; see DESIGN.md §2 for the substitution argument. Everything is
// driven by a latent topic model: nodes carry a topic-anchored content
// vector, users hold mixtures over topics, and sessions follow an intent
// topic that drifts between queries.
package loggen

import (
	"fmt"
	"strings"

	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// Config parameterizes a synthetic world.
type Config struct {
	Seed uint64

	Users, Queries, Items int
	Topics                int // latent interest clusters
	ContentDim            int // dimensionality of content vectors

	SessionsPerUser int     // mean sessions per user
	QueriesPerSess  int     // mean queries per session
	ClicksPerQuery  int     // mean clicks per posed query
	IntentDrift     float64 // prob. the intent topic changes between queries
	NoiseClick      float64 // prob. a click is off-topic noise
	TopicsPerUser   int     // size of each user's interest mixture

	PopularityExp float64 // Zipf exponent for item/query popularity
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Users <= 0 || c.Queries <= 0 || c.Items <= 0:
		return fmt.Errorf("loggen: node counts must be positive")
	case c.Topics <= 0:
		return fmt.Errorf("loggen: need at least one topic")
	case c.ContentDim <= 0:
		return fmt.Errorf("loggen: content dim must be positive")
	case c.SessionsPerUser <= 0 || c.QueriesPerSess <= 0 || c.ClicksPerQuery <= 0:
		return fmt.Errorf("loggen: session shape must be positive")
	case c.IntentDrift < 0 || c.IntentDrift > 1 || c.NoiseClick < 0 || c.NoiseClick > 1:
		return fmt.Errorf("loggen: probabilities must be in [0,1]")
	case c.TopicsPerUser <= 0 || c.TopicsPerUser > c.Topics:
		return fmt.Errorf("loggen: TopicsPerUser must be in [1, Topics]")
	case c.PopularityExp <= 0:
		return fmt.Errorf("loggen: PopularityExp must be positive")
	}
	return nil
}

// Scale names the three Taobao graph scales of §VII-A. The node counts are
// the paper's ratios scaled down ~1000-40000x so experiments run on one
// machine; the distributions, not the absolute sizes, carry the phenomena.
type Scale int

// The three evaluation scales plus a tiny scale for unit tests.
const (
	ScaleTiny Scale = iota
	ScaleSmall
	ScaleMedium
	ScaleLarge
)

// scaleNames is the one name table: the -scale flag value and the
// paper's name (§VII-A) of each scale.
var scaleNames = [...]struct{ flag, paper string }{
	ScaleTiny:   {"tiny", "tiny"},
	ScaleSmall:  {"small", "million-scale"},
	ScaleMedium: {"medium", "hundred-million-scale"},
	ScaleLarge:  {"large", "billion-scale"},
}

// String names the scale as the paper does.
func (s Scale) String() string {
	if s < 0 || int(s) >= len(scaleNames) {
		return fmt.Sprintf("scale(%d)", int(s))
	}
	return scaleNames[s].paper
}

// ParseScale maps a flag value (or the paper's name, so String
// round-trips) to a Scale.
func ParseScale(name string) (Scale, error) {
	var flags []string
	for s, n := range scaleNames {
		if name == n.flag || name == n.paper {
			return Scale(s), nil
		}
		flags = append(flags, n.flag)
	}
	return ScaleTiny, fmt.Errorf("loggen: unknown scale %q (want one of %s)", name, strings.Join(flags, ", "))
}

// TaobaoConfig returns the generator preset for one of the paper's graph
// scales. Ratios follow §VII-A: the million-scale graph is item-heavy
// (1M items / 0.5M queries / 0.5M users), the larger graphs user-heavy.
func TaobaoConfig(s Scale, seed uint64) Config {
	base := Config{
		Seed:            seed,
		Topics:          24,
		ContentDim:      16,
		SessionsPerUser: 6,
		QueriesPerSess:  3,
		ClicksPerQuery:  4,
		IntentDrift:     0.55,
		NoiseClick:      0.20,
		TopicsPerUser:   3,
		PopularityExp:   1.05,
	}
	switch s {
	case ScaleTiny:
		base.Users, base.Queries, base.Items = 60, 60, 120
		base.Topics = 6
		base.SessionsPerUser = 3
	case ScaleSmall:
		base.Users, base.Queries, base.Items = 1500, 1500, 3000
	case ScaleMedium:
		base.Users, base.Queries, base.Items = 6000, 2700, 1000
		base.SessionsPerUser = 8
	case ScaleLarge:
		base.Users, base.Queries, base.Items = 8500, 6250, 14250
		base.SessionsPerUser = 8
	default:
		panic("loggen: unknown scale")
	}
	return base
}

// Click is one clicked item within a query interaction.
type Click struct {
	Item int // item index
}

// QueryEvent is one posed query and the click sequence under it.
type QueryEvent struct {
	Query  int
	Clicks []Click
	Topic  int // ground-truth intent topic (not visible to models)
}

// Session is a sequence of query events by one user.
type Session struct {
	User   int
	Events []QueryEvent
}

// UserMeta holds generated user attributes. FeatureIDs maps to Table I:
// id, gender, membership level.
type UserMeta struct {
	TopicWeights []float32 // interest mixture over topics
	Content      tensor.Vec
	FeatureIDs   []int32
}

// QueryMeta holds generated query attributes: category (= topic) and
// title-term ids.
type QueryMeta struct {
	Topic      int
	Content    tensor.Vec
	FeatureIDs []int32
	TitleTerms []uint64
}

// ItemMeta holds generated item attributes: id, category, title terms,
// brand, shop.
type ItemMeta struct {
	Topic      int
	Content    tensor.Vec
	FeatureIDs []int32
	TitleTerms []uint64
}

// Logs is a complete synthetic world: node metadata plus sessions.
type Logs struct {
	Config   Config
	Topics   []tensor.Vec
	Users    []UserMeta
	Queries  []QueryMeta
	Items    []ItemMeta
	Sessions []Session

	queriesByTopic [][]int
	itemsByTopic   [][]int
}

// vocabulary sizes for the categorical feature spaces.
const (
	numGenders     = 3
	numMemberships = 5
	numBrands      = 200
	numShops       = 500
	termsPerTopic  = 40
	termsPerNode   = 6
)

// Generate builds a synthetic world from cfg. It is deterministic in
// cfg.Seed.
func Generate(cfg Config) (*Logs, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	l := &Logs{Config: cfg}

	// Latent topics: random unit vectors.
	l.Topics = make([]tensor.Vec, cfg.Topics)
	for t := range l.Topics {
		v := make(tensor.Vec, cfg.ContentDim)
		for i := range v {
			v[i] = float32(r.NormFloat64())
		}
		tensor.Normalize(v)
		l.Topics[t] = v
	}

	noisyTopicVec := func(topic int, noise float32) tensor.Vec {
		v := tensor.Copy(l.Topics[topic])
		for i := range v {
			v[i] += noise * float32(r.NormFloat64())
		}
		tensor.Normalize(v)
		return v
	}
	topicTerms := func(topic int, n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(topic*termsPerTopic + r.Intn(termsPerTopic))
		}
		return out
	}

	// Items: Zipf topic assignment so category sizes are skewed, then
	// Zipf popularity within the catalog.
	topicZipf := rng.NewZipf(r, cfg.Topics, 0.9)
	l.Items = make([]ItemMeta, cfg.Items)
	l.itemsByTopic = make([][]int, cfg.Topics)
	for i := range l.Items {
		topic := topicZipf.Sample()
		l.Items[i] = ItemMeta{
			Topic:      topic,
			Content:    noisyTopicVec(topic, 0.35),
			TitleTerms: topicTerms(topic, termsPerNode),
			FeatureIDs: []int32{
				int32(i),                 // item id
				int32(topic),             // category
				int32(r.Intn(numBrands)), // brand
				int32(r.Intn(numShops)),  // shop
			},
		}
		l.itemsByTopic[topic] = append(l.itemsByTopic[topic], i)
	}

	// Queries.
	l.Queries = make([]QueryMeta, cfg.Queries)
	l.queriesByTopic = make([][]int, cfg.Topics)
	for q := range l.Queries {
		topic := topicZipf.Sample()
		l.Queries[q] = QueryMeta{
			Topic:      topic,
			Content:    noisyTopicVec(topic, 0.25),
			TitleTerms: topicTerms(topic, termsPerNode),
			FeatureIDs: []int32{int32(topic)}, // category
		}
		l.queriesByTopic[topic] = append(l.queriesByTopic[topic], q)
	}
	// Guarantee every topic has at least one query and one item so
	// session generation cannot dead-end.
	for t := 0; t < cfg.Topics; t++ {
		if len(l.queriesByTopic[t]) == 0 {
			q := r.Intn(cfg.Queries)
			l.queriesByTopic[t] = append(l.queriesByTopic[t], q)
		}
		if len(l.itemsByTopic[t]) == 0 {
			i := r.Intn(cfg.Items)
			l.itemsByTopic[t] = append(l.itemsByTopic[t], i)
		}
	}

	// Users: interest mixture over TopicsPerUser topics.
	l.Users = make([]UserMeta, cfg.Users)
	for u := range l.Users {
		weights := make([]float32, cfg.Topics)
		content := make(tensor.Vec, cfg.ContentDim)
		var total float32
		for k := 0; k < cfg.TopicsPerUser; k++ {
			topic := topicZipf.Sample()
			w := 0.5 + r.Float32()
			weights[topic] += w
			total += w
		}
		for t, w := range weights {
			if w == 0 {
				continue
			}
			weights[t] = w / total
			tensor.Axpy(weights[t], l.Topics[t], content)
		}
		tensor.Normalize(content)
		l.Users[u] = UserMeta{
			TopicWeights: weights,
			Content:      content,
			FeatureIDs: []int32{
				int32(u),                      // user id
				int32(r.Intn(numGenders)),     // gender
				int32(r.Intn(numMemberships)), // membership level
			},
		}
	}

	// Popularity samplers within each topic (head queries/items dominate).
	queryPop := make([]*rng.Zipf, cfg.Topics)
	itemPop := make([]*rng.Zipf, cfg.Topics)
	for t := 0; t < cfg.Topics; t++ {
		queryPop[t] = rng.NewZipf(r, len(l.queriesByTopic[t]), cfg.PopularityExp)
		itemPop[t] = rng.NewZipf(r, len(l.itemsByTopic[t]), cfg.PopularityExp)
	}

	sampleUserTopic := func(u int) int {
		x := r.Float32()
		var acc float32
		for t, w := range l.Users[u].TopicWeights {
			acc += w
			if x <= acc {
				return t
			}
		}
		return cfg.Topics - 1
	}

	// Sessions.
	for u := range l.Users {
		nSess := 1 + r.Intn(2*cfg.SessionsPerUser-1) // mean ≈ SessionsPerUser
		for s := 0; s < nSess; s++ {
			intent := sampleUserTopic(u)
			sess := Session{User: u}
			nQ := 1 + r.Intn(2*cfg.QueriesPerSess-1)
			for qi := 0; qi < nQ; qi++ {
				if qi > 0 && r.Float64() < cfg.IntentDrift {
					// Focal interest changes mid-session (Fig. 4b): mostly a
					// different user interest, sometimes a fully random topic.
					if r.Float64() < 0.3 {
						intent = r.Intn(cfg.Topics)
					} else {
						intent = sampleUserTopic(u)
					}
				}
				qlist := l.queriesByTopic[intent]
				q := qlist[queryPop[intent].Sample()]
				ev := QueryEvent{Query: q, Topic: intent}
				nC := 1 + r.Intn(2*cfg.ClicksPerQuery-1)
				for c := 0; c < nC; c++ {
					topic := intent
					if r.Float64() < cfg.NoiseClick {
						topic = r.Intn(cfg.Topics) // off-intent noise click
					}
					ilist := l.itemsByTopic[topic]
					ev.Clicks = append(ev.Clicks, Click{Item: ilist[itemPop[topic].Sample()]})
				}
				sess.Events = append(sess.Events, ev)
			}
			l.Sessions = append(l.Sessions, sess)
		}
	}
	return l, nil
}

// MustGenerate is Generate but panics on config errors; for presets known
// to be valid.
func MustGenerate(cfg Config) *Logs {
	l, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return l
}

// NumInteractions counts (user, query, clicked item) triples.
func (l *Logs) NumInteractions() int {
	n := 0
	for _, s := range l.Sessions {
		for _, ev := range s.Events {
			n += len(ev.Clicks)
		}
	}
	return n
}

// ItemsOfTopic returns the item indices whose ground-truth topic is t.
func (l *Logs) ItemsOfTopic(t int) []int { return l.itemsByTopic[t] }

// QueriesOfTopic returns the query indices whose ground-truth topic is t.
func (l *Logs) QueriesOfTopic(t int) []int { return l.queriesByTopic[t] }

// Exported vocabulary sizes for the categorical feature spaces, needed by
// models to size embedding tables.
const (
	NumGenders     = numGenders
	NumMemberships = numMemberships
	NumBrands      = numBrands
	NumShops       = numShops
	TermsPerNode   = termsPerNode
)

// Vocab reports the size of every categorical id space in this world.
type Vocab struct {
	Users, Queries, Items               int
	Categories                          int
	Genders, Memberships, Brands, Shops int
	Terms                               int
}

// Vocab returns the vocabulary sizes of the generated world.
func (l *Logs) Vocab() Vocab {
	return Vocab{
		Users:       len(l.Users),
		Queries:     len(l.Queries),
		Items:       len(l.Items),
		Categories:  l.Config.Topics,
		Genders:     numGenders,
		Memberships: numMemberships,
		Brands:      numBrands,
		Shops:       numShops,
		Terms:       l.Config.Topics * termsPerTopic,
	}
}
