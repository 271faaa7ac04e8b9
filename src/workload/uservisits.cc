#include "workload/uservisits.h"

#include <algorithm>
#include <array>
#include <charconv>

#include "util/random.h"

namespace hail {
namespace workload {

namespace {

constexpr const char* kCountryCodes[] = {"USA", "DEU", "FRA", "GBR", "CHN",
                                         "IND", "BRA", "JPN", "MEX", "TUR"};
constexpr const char* kLanguages[] = {"en",    "de", "fr",    "zh", "hi",
                                      "pt-br", "ja", "es-mx", "tr", "it"};
// Pavlo et al.'s UserVisits declares userAgent VARCHAR(256) and
// sourceIP/destURL as long varchars; realistic full agent strings keep the
// binary/text size ratio near 1 (strings dominate the row), matching the
// paper's observation that UserVisits barely shrinks under conversion.
constexpr const char* kAgents[] = {
    "Mozilla/5.0 (Windows NT 6.1; WOW64) AppleWebKit/535.1 (KHTML like "
    "Gecko) Chrome/14.0.835.202 Safari/535.1",
    "Mozilla/4.0 (compatible; MSIE 8.0; Windows NT 5.1; Trident/4.0; .NET "
    "CLR 2.0.50727)",
    "Opera/9.80 (X11; Linux x86_64; U; en) Presto/2.9.168 Version/11.52",
    "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_7_2) AppleWebKit/534.51.22",
    "Mozilla/5.0 (X11; Ubuntu; Linux i686; rv:8.0) Gecko/20100101 "
    "Firefox/8.0",
};
constexpr const char* kWords[] = {
    "alpha",  "bravo",  "charlie", "delta", "echo",  "foxtrot", "golf",
    "hotel",  "india",  "juliet",  "kilo",  "lima",  "mike",    "november",
    "oscar",  "papa",   "quebec",  "romeo", "sierra", "tango",  "uniform",
    "victor", "whisky", "xray",    "yankee", "zulu"};

// visitDate domain: [1980-01-01, 2012-04-01). 11,779 days, so the one-year
// Q1 window of 366 days selects 3.107e-2 of the rows.
constexpr int32_t kDateBaseDays = 3653;   // 1980-01-01
constexpr int32_t kDateSpanDays = 11779;

// adRevenue domain [0, 520): Q4's [1,10] selects 1.73e-2; Q5's [1,100]
// selects 1.90e-1 (paper: 2.04e-1).
constexpr double kAdRevenueMax = 520.0;

/// Appends \p v in decimal.
void AppendInt(std::string* out, uint64_t v) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// Appends \p n random lowercase letters (Random::NextString's draws).
void AppendLetters(std::string* out, Random& rng, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) {
    out->push_back(static_cast<char>('a' + rng.Uniform(26)));
  }
}

}  // namespace

Schema UserVisitsSchema() {
  return Schema({
      {"sourceIP", FieldType::kString},
      {"destURL", FieldType::kString},
      {"visitDate", FieldType::kDate},
      {"adRevenue", FieldType::kDouble},
      {"userAgent", FieldType::kString},
      {"countryCode", FieldType::kString},
      {"languageCode", FieldType::kString},
      {"searchWord", FieldType::kString},
      {"duration", FieldType::kInt32},
  });
}

std::string GenerateUserVisitsText(const UserVisitsConfig& config) {
  Random rng(config.seed);
  uint64_t needle_every = config.needle_every;
  if (needle_every == 0) {
    // Match the paper-scale needle density of 3.2e-8 under the scale
    // model: one real needle row represents `scale_factor` logical rows.
    const double logical_density = 3.2e-8 * config.scale_factor;
    needle_every = logical_density > 0
                       ? static_cast<uint64_t>(1.0 / logical_density)
                       : 0;
    if (needle_every == 0) needle_every = 1;
    // Tiny (test-sized) datasets still need Bob's needle to exist at all;
    // clamp so at least one needle row is planted.
    if (needle_every > config.rows && config.rows > 0) {
      needle_every = config.rows;
    }
  }

  std::string out;
  out.reserve(static_cast<size_t>(static_cast<double>(config.rows) *
                                  UserVisitsAvgRowBytes()));
  uint64_t needle_count = 0;
  for (uint64_t r = 0; r < config.rows; ++r) {
    const bool is_needle = needle_every > 0 && (r % needle_every) ==
                                                   (needle_every / 2);
    // sourceIP: the octets are drawn last one first, the order every
    // dataset and golden was generated in.
    if (is_needle) {
      out += kNeedleIP;
      ++needle_count;
    } else {
      const uint64_t d = rng.Uniform(256);
      const uint64_t c = rng.Uniform(256);
      const uint64_t b = rng.Uniform(256);
      const uint64_t a = rng.Uniform(223) + 1;
      AppendInt(&out, a);
      out += '.';
      AppendInt(&out, b);
      out += '.';
      AppendInt(&out, c);
      out += '.';
      AppendInt(&out, d);
    }
    out += ',';
    // destURL
    out += "http://www.";
    AppendLetters(&out, rng, 8 + rng.Uniform(10));
    out += ".com/";
    AppendLetters(&out, rng, 6 + rng.Uniform(12));
    out += ',';
    // visitDate: every 5th needle row carries Bob-Q3's exact date.
    int32_t days;
    if (is_needle && (needle_count % 5) == 1) {
      days = *ParseDateToDays(kNeedleDate);
    } else if (config.time_ordered) {
      days = kDateBaseDays +
             static_cast<int32_t>(r * static_cast<uint64_t>(kDateSpanDays) /
                                  std::max<uint64_t>(config.rows, 1));
    } else {
      days = kDateBaseDays + static_cast<int32_t>(rng.Uniform(kDateSpanDays));
    }
    out += DaysToDateString(days);
    out += ',';
    // adRevenue, as %.2f
    char buf[32];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf),
                                  rng.NextDouble() * kAdRevenueMax,
                                  std::chars_format::fixed, 2)
                        .ptr);
    out += ',';
    // userAgent / countryCode / languageCode / searchWord
    out += kAgents[rng.Uniform(std::size(kAgents))];
    out += ',';
    out += kCountryCodes[rng.Uniform(std::size(kCountryCodes))];
    out += ',';
    out += kLanguages[rng.Uniform(std::size(kLanguages))];
    out += ',';
    out += kWords[rng.Uniform(std::size(kWords))];
    out += ',';
    // duration
    AppendInt(&out, rng.Uniform(10000));
    out += '\n';
  }
  return out;
}

double UserVisitsAvgRowBytes() { return 172.0; }

}  // namespace workload
}  // namespace hail
