# Reduces `go test -cover` output to one "<package> <percent>" line per
# package that reports statement coverage, e.g. "coreda/internal/wire 86.1".
# Tested packages print "ok <pkg> <time> coverage: N% ..."; packages
# without tests print "<pkg> coverage: N% ...".
{
	for (i = 1; i < NF; i++) {
		if ($i == "coverage:" && $(i + 1) ~ /%$/) {
			pct = $(i + 1)
			sub(/%$/, "", pct)
			print ($1 == "ok" ? $2 : $1), pct
		}
	}
}
