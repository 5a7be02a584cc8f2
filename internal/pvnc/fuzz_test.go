package pvnc

import "testing"

// FuzzParse: the PVNC parser must never panic, anything it accepts
// must survive the Format/Parse round trip with its validation outcome
// intact, and both compilers must refuse every config Validate rejects.
func FuzzParse(f *testing.F) {
	f.Add(goodSrc)
	f.Add("pvnc x\nowner a\ndevice 1.2.3.4\npolicy 0 match any action=forward")
	f.Add("pvnc x\nowner a\ndevice 1.2.3.4\npolicy 10 match dport=80 action=forward")
	f.Add("middlebox a b c=d")
	f.Add("policy 0 match any rate=.1 action=forward") // Format would write rate=0bps
	f.Add("")

	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		valid := len(p.Validate()) == 0
		q, err := Parse(p.Format())
		if err != nil {
			t.Fatalf("Format produced unparseable text: %v", err)
		}
		if (len(q.Validate()) == 0) != valid {
			t.Fatal("validation outcome changed across Format/Parse")
		}
		// Compile and CompileShared are the sinks a parsed config
		// reaches: each compiles exactly what Validate accepts.
		opt := CompileOptions{UpstreamPort: 1}
		_, err = Compile(p, opt)
		_, serr := NewTemplateCache().CompileShared(p, opt)
		for name, err := range map[string]error{"Compile": err, "CompileShared": serr} {
			if valid && err != nil {
				t.Fatalf("valid config failed %s: %v", name, err)
			}
			if !valid && err == nil {
				t.Fatalf("%s accepted a config Validate rejects: %v", name, p.Validate()[0])
			}
		}
	})
}
