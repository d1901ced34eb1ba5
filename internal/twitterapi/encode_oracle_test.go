package twitterapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"

	"fakeproject/internal/twitter"
)

// The differential oracle of encode.go: the reflective encoders the server
// used before it printed its responses by hand — a profile or tweet copied
// into its wire struct and marshalled by encoding/json. Tests hold the
// append encoders to these bytes.

func encodeUser(p twitter.Profile) userJSON {
	u := userJSON{
		ID:                  int64(p.ID),
		ScreenName:          p.ScreenName,
		Name:                p.Name,
		CreatedAt:           p.CreatedAt.Format(timeFormat),
		Description:         p.Bio,
		Location:            p.Location,
		URL:                 p.URL,
		FollowersCount:      p.FollowersCount,
		FriendsCount:        p.FriendsCount,
		StatusesCount:       p.StatusesCount,
		DefaultProfileImage: p.DefaultProfileImage,
		Protected:           p.Protected,
		Verified:            p.Verified,
		Behavior: &behaviorJSON{
			RetweetRatio:   p.Behavior.RetweetRatio,
			LinkRatio:      p.Behavior.LinkRatio,
			SpamRatio:      p.Behavior.SpamRatio,
			DuplicateRatio: p.Behavior.DuplicateRatio,
		},
	}
	if !p.LastTweetAt.IsZero() {
		u.LastTweetAt = p.LastTweetAt.Format(timeFormat)
	}
	return u
}

func encodeTweet(tw twitter.Tweet) tweetJSON {
	return tweetJSON{
		ID:        int64(tw.ID),
		AuthorID:  int64(tw.Author),
		CreatedAt: tw.CreatedAt.Format(timeFormat),
		Text:      tw.Text,
		IsRetweet: tw.IsRetweet,
		HasLink:   tw.HasLink,
		IsReply:   tw.IsReply,
		Mentions:  tw.Mentions,
		Hashtags:  tw.Hashtags,
		Source:    tw.Source,
	}
}

// writeJSON answers with v marshalled by encoding/json, or with the 500 the
// server gives a value JSON cannot carry.
func writeJSON(w http.ResponseWriter, v any) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		writeError(w, http.StatusInternalServerError, 131, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(body.Len()))
	_, _ = w.Write(body.Bytes())
}
