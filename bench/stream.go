package main

import (
	"strconv"
	"strings"

	"fakeproject/internal/drand"
)

// followersPageSize is the followers/ids page size on the wire. The stream
// needs it to know on which page a walk ends, and the crawler then checks
// that the server ends it there too.
const followersPageSize = 5000

// Request kinds of the crawl stream, in mix order.
const (
	opFollowers = iota
	opLookup
	opTimeline
	opFriends
	opShow
	opKinds
)

var opKindNames = [opKinds]string{
	"followers/ids", "users/lookup", "statuses/user_timeline", "friends/ids", "users/show",
}

// crawlMix is the share of each kind in the stream, in percent. Follower
// walks dominate because crawling a follower list is what the paper's
// analytics spend their API budget on; lookups come next (100 profiles per
// 5000 ids read), timelines and friend lists are what the classifiers pull
// per sampled account, and users/show opens each audit.
var crawlMix = [opKinds]float64{45, 25, 15, 10, 5}

// crawlOp is one request of the crawl stream.
type crawlOp struct {
	Kind int
	// Path is the request path and query. A followers/ids step past the
	// first page of its walk ends in "cursor=" and takes the cursor the
	// previous page returned.
	Path string
	// Target, Page and LastPage place a followers/ids step in its walk:
	// the index into fixture.Crawl, the page number from 0, and whether
	// the server must report the end of the list on this page.
	Target   int
	Page     int
	LastPage bool
}

// crawlStream generates the seeded request stream shared by crawl-single
// and crawl-ring. It is a pure function of the fixture's shape and the
// seed: the same seed gives the same requests whatever the servers answer.
type crawlStream struct {
	fx   *fixture
	src  *drand.Source
	zipf []float64
	// The follower walk in progress; walkPages is 0 between walks.
	walkTarget, walkPage, walkPages int
}

func newCrawlStream(fx *fixture) *crawlStream {
	s := &crawlStream{fx: fx, src: drand.New(fx.Seed).Fork("bench-crawl-stream")}
	for k := range fx.Crawl {
		s.zipf = append(s.zipf, 1/float64(k+1))
	}
	return s
}

// next returns the next request of the stream.
func (s *crawlStream) next() crawlOp {
	switch kind := s.src.WeightedChoice(crawlMix[:]); kind {
	case opFollowers:
		if s.walkPages == 0 {
			s.walkTarget = s.src.WeightedChoice(s.zipf)
			s.walkPage = 0
			n := s.fx.Crawl[s.walkTarget].Followers
			s.walkPages = (n + followersPageSize - 1) / followersPageSize
		}
		op := crawlOp{
			Kind:     opFollowers,
			Target:   s.walkTarget,
			Page:     s.walkPage,
			LastPage: s.walkPage == s.walkPages-1,
			Path:     "/1.1/followers/ids.json?screen_name=" + s.fx.Crawl[s.walkTarget].Name + "&cursor=",
		}
		if op.Page == 0 {
			op.Path += "-1"
		}
		s.walkPage++
		if op.LastPage {
			s.walkPages = 0
		}
		return op
	case opLookup:
		var b strings.Builder
		b.WriteString("/1.1/users/lookup.json?user_id=")
		for i := 0; i < 100; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatInt(1+s.src.Int63n(int64(s.fx.Accounts)), 10))
		}
		return crawlOp{Kind: opLookup, Path: b.String()}
	case opTimeline:
		t := s.fx.Crawl[s.src.WeightedChoice(s.zipf)]
		return crawlOp{Kind: opTimeline,
			Path: "/1.1/statuses/user_timeline.json?user_id=" + strconv.FormatInt(int64(t.ID), 10) + "&count=200"}
	case opFriends:
		id := 1 + s.src.Int63n(int64(s.fx.Accounts))
		return crawlOp{Kind: opFriends,
			Path: "/1.1/friends/ids.json?user_id=" + strconv.FormatInt(id, 10) + "&cursor=-1"}
	default:
		all := len(s.fx.Crawl) + len(s.fx.Audit)
		i := s.src.Intn(all)
		name := ""
		if i < len(s.fx.Crawl) {
			name = s.fx.Crawl[i].Name
		} else {
			name = s.fx.Audit[i-len(s.fx.Crawl)].Name
		}
		return crawlOp{Kind: opShow, Path: "/1.1/users/show.json?screen_name=" + name}
	}
}

// abandonWalk drops the walk in progress; the crawler calls it when a page
// failed and the cursor to continue from is lost.
func (s *crawlStream) abandonWalk() { s.walkPages = 0 }
