#include "charlib/serialize.h"

#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "util/check.h"
#include "util/log.h"

namespace sasta::charlib {

namespace {

constexpr const char* kFormatTag = "sasta-charlib-v2";

void write_polyfit(std::ostream& os, const num::PolyFit& fit) {
  os << fit.basis.num_vars() << " " << fit.coeff.size();
  for (const auto& m : fit.basis.monomials()) {
    for (int v = 0; v < fit.basis.num_vars(); ++v) {
      os << " " << static_cast<int>(m.exp[v]);
    }
  }
  for (double c : fit.coeff) os << " " << c;
  os << " " << fit.max_rel_error << " " << fit.mean_rel_error;
}

// Whitespace-delimited tokens read straight from a stream buffer, with no
// per-token istream sentry or locale lookup.  Numbers go through
// std::from_chars (locale-independent, correctly rounded) and are strict: the
// whole token must be one in-range value, and a double must be finite.  Any
// miss throws util::Error carrying the diagnostic of the field being read.
class TokenReader {
 public:
  explicit TokenReader(std::streambuf& buf) : buf_(buf) {}

  /// The next token, or "" at end of input; valid until the next call.
  const std::string& word() {
    word_.clear();
    for (int c = skip_space(); c != kEof && !is_space(c); c = buf_.snextc()) {
      word_.push_back(static_cast<char>(c));
    }
    return word_;
  }

  void keyword(std::string_view expected, std::string_view what) {
    SASTA_CHECK(word() == expected) << " " << what;
  }

  template <typename T>
  T number(std::string_view what) {
    // %.17g needs at most 24 characters; anything longer is not a number.
    char tok[32];
    std::size_t n = 0;
    for (int c = skip_space(); c != kEof && !is_space(c); c = buf_.snextc()) {
      SASTA_CHECK(n < sizeof(tok)) << " " << what << ": overlong number";
      tok[n++] = static_cast<char>(c);
    }
    T value{};
    const auto [end, ec] = std::from_chars(tok, tok + n, value);
    bool ok = ec == std::errc() && end == tok + n;
    if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
    SASTA_CHECK(ok) << " " << what << ": bad number '"
                    << std::string_view(tok, n) << "'";
    return value;
  }

 private:
  static constexpr int kEof = std::char_traits<char>::eof();

  static bool is_space(int c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

  int skip_space() {
    int c = buf_.sgetc();
    while (c != kEof && is_space(c)) c = buf_.snextc();
    return c;
  }

  std::streambuf& buf_;
  std::string word_;
};

num::PolyFit read_polyfit(TokenReader& in) {
  const int num_vars = in.number<int>("bad polyfit header");
  const auto num_terms = in.number<std::size_t>("bad polyfit header");
  // Exponents are below 16, so a basis holds at most 16^num_vars monomials.
  SASTA_CHECK(num_vars >= 1 && num_vars <= num::kMaxPolyVars &&
              num_terms <= std::size_t{1} << (4 * num_vars))
      << " bad polyfit header";
  // The stored monomials may be any subset of a tensor basis (the recursive
  // fit can drop terms), so rebuild the covering tensor basis and place each
  // stored coefficient on its monomial, leaving the rest zero.
  std::vector<num::Monomial> monomials(num_terms);
  std::array<int, num::kMaxPolyVars> max_exp{};
  for (auto& m : monomials) {
    for (int v = 0; v < num_vars; ++v) {
      const int e = in.number<int>("bad exponent");
      SASTA_CHECK(e >= 0 && e < 16) << " bad exponent";
      m.exp[v] = static_cast<std::uint8_t>(e);
      max_exp[v] = std::max(max_exp[v], e);
    }
  }
  std::vector<double> coeff(num_terms);
  for (double& c : coeff) c = in.number<double>("truncated polyfit");
  num::PolyFit fit;
  fit.max_rel_error = in.number<double>("truncated polyfit");
  fit.mean_rel_error = in.number<double>("truncated polyfit");

  std::vector<int> orders(num_vars);
  for (int v = 0; v < num_vars; ++v) orders[v] = max_exp[v];
  fit.basis = num::PolyBasis::tensor(orders);
  fit.coeff.assign(fit.basis.size(), 0.0);
  for (std::size_t t = 0; t < monomials.size(); ++t) {
    bool placed = false;
    for (std::size_t b = 0; b < fit.basis.monomials().size(); ++b) {
      if (fit.basis.monomials()[b] == monomials[t]) {
        fit.coeff[b] = coeff[t];
        placed = true;
        break;
      }
    }
    SASTA_CHECK(placed) << " monomial not representable";
  }
  return fit;
}

void write_lut(std::ostream& os, const LutModel& lut) {
  os << lut.slew_axis().size() << " " << lut.fo_axis().size() << " "
     << (lut.inverting() ? 1 : 0);
  for (double s : lut.slew_axis()) os << " " << s;
  for (double f : lut.fo_axis()) os << " " << f;
  for (std::size_t i = 0; i < lut.slew_axis().size(); ++i) {
    for (std::size_t j = 0; j < lut.fo_axis().size(); ++j) {
      os << " " << lut.delay_table()(i, j);
    }
  }
  for (std::size_t i = 0; i < lut.slew_axis().size(); ++i) {
    for (std::size_t j = 0; j < lut.fo_axis().size(); ++j) {
      os << " " << lut.out_slew_table()(i, j);
    }
  }
}

LutModel read_lut(TokenReader& in) {
  const auto ns = in.number<std::size_t>("bad LUT header");
  const auto nf = in.number<std::size_t>("bad LUT header");
  const int inverting = in.number<int>("bad LUT header");
  SASTA_CHECK(ns >= 1 && nf >= 1 && ns < 100 && nf < 100) << " bad LUT header";
  std::vector<double> slew_axis(ns), fo_axis(nf);
  for (double& s : slew_axis) s = in.number<double>("truncated LUT");
  for (double& f : fo_axis) f = in.number<double>("truncated LUT");
  num::Matrix delay(ns, nf), slew(ns, nf);
  for (num::Matrix* table : {&delay, &slew}) {
    for (std::size_t i = 0; i < ns; ++i) {
      for (std::size_t j = 0; j < nf; ++j) {
        (*table)(i, j) = in.number<double>("truncated LUT");
      }
    }
  }
  return LutModel(std::move(slew_axis), std::move(fo_axis), std::move(delay),
                  std::move(slew), inverting != 0);
}

}  // namespace

void save_charlibrary(const CharLibrary& lib, std::ostream& os) {
  os.precision(17);
  os << kFormatTag << "\n";
  os << "tech " << lib.tech_name() << " profile " << lib.profile() << "\n";
  os << "cells " << lib.all().size() << "\n";
  for (const auto& c : lib.all()) {
    os << "cell " << c.cell_name << " " << c.pin_caps.size() << " "
       << c.avg_input_cap;
    for (double pc : c.pin_caps) os << " " << pc;
    os << "\n";
    for (std::size_t p = 0; p < c.vectors.size(); ++p) {
      os << "pin " << p << " " << c.vectors[p].size() << "\n";
      for (const auto& v : c.vectors[p]) {
        os << "vec " << v.id << " " << v.side.care << " " << v.side.values
           << " " << (v.inverting ? 1 : 0) << "\n";
        for (int e = 0; e < 2; ++e) {
          const ArcModel& arc = c.poly_arcs[p][v.id][e];
          os << "arc " << e << " " << (arc.inverting() ? 1 : 0) << " ";
          write_polyfit(os, arc.delay_fit());
          os << " ";
          write_polyfit(os, arc.slew_fit());
          os << "\n";
        }
      }
      for (int e = 0; e < 2; ++e) {
        os << "lut " << e << " ";
        write_lut(os, c.lut_arcs[p][e]);
        os << "\n";
      }
    }
  }
  os << "end\n";
}

void save_charlibrary_file(const CharLibrary& lib, const std::string& path) {
  // Write a private temporary beside `path` and rename it into place, so a
  // concurrent reader (another test binary or daemon sharing the cache
  // directory) sees either no file or a complete one.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  std::ofstream os(tmp);
  SASTA_CHECK(os.good()) << " cannot open " << tmp << " for writing";
  save_charlibrary(lib, os);
  os.close();
  std::error_code ec;
  if (os.good()) std::filesystem::rename(tmp, path, ec);
  if (!os.good() || ec) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
  }
  SASTA_CHECK(os.good()) << " write failure on " << tmp;
  SASTA_CHECK(!ec) << " cannot rename " << tmp << " to " << path << ": "
                   << ec.message();
}

CharLibrary load_charlibrary(std::istream& is) {
  TokenReader in(*is.rdbuf());
  const std::string tag = in.word();
  SASTA_CHECK(tag == kFormatTag)
      << " format mismatch: got '" << tag << "' want '" << kFormatTag << "'";
  in.keyword("tech", "expected 'tech'");
  const std::string tech_name = in.word();
  in.keyword("profile", "expected 'profile'");
  const std::string profile = in.word();
  in.keyword("cells", "bad cell count");
  const auto num_cells = in.number<std::size_t>("bad cell count");
  SASTA_CHECK(num_cells < 10000) << " bad cell count";

  CharLibrary lib(tech_name, profile);
  for (std::size_t ci = 0; ci < num_cells; ++ci) {
    CellTiming t;
    in.keyword("cell", "bad cell record");
    t.cell_name = in.word();
    const auto num_pins = in.number<std::size_t>("bad cell record");
    t.avg_input_cap = in.number<double>("bad cell record");
    SASTA_CHECK(num_pins >= 1 && num_pins <= 6) << " bad cell record";
    t.pin_caps.resize(num_pins);
    for (double& pc : t.pin_caps) pc = in.number<double>("bad cell record");
    t.vectors.resize(num_pins);
    t.poly_arcs.resize(num_pins);
    t.lut_arcs.resize(num_pins);
    for (std::size_t p = 0; p < num_pins; ++p) {
      const std::string bad_pin = "bad pin record in " + t.cell_name;
      in.keyword("pin", bad_pin);
      const auto pin_index = in.number<std::size_t>(bad_pin);
      const auto num_vecs = in.number<std::size_t>(bad_pin);
      SASTA_CHECK(pin_index == p && num_vecs >= 1) << " " << bad_pin;
      for (std::size_t vi = 0; vi < num_vecs; ++vi) {
        SensitizationVector v;
        in.keyword("vec", "bad vector record");
        v.id = in.number<int>("bad vector record");
        v.side.care = in.number<std::uint32_t>("bad vector record");
        v.side.values = in.number<std::uint32_t>("bad vector record");
        const int inv = in.number<int>("bad vector record");
        SASTA_CHECK(v.id == static_cast<int>(vi)) << " bad vector record";
        v.pin = static_cast<int>(p);
        v.inverting = inv != 0;
        t.vectors[p].push_back(v);
        std::array<ArcModel, 2> arcs;
        for (int e = 0; e < 2; ++e) {
          in.keyword("arc", "bad arc record");
          const int edge_index = in.number<int>("bad arc record");
          const int arc_inv = in.number<int>("bad arc record");
          SASTA_CHECK(edge_index == e) << " bad arc record";
          num::PolyFit delay_fit = read_polyfit(in);
          num::PolyFit slew_fit = read_polyfit(in);
          arcs[e] = ArcModel(std::move(delay_fit), std::move(slew_fit),
                             arc_inv != 0);
        }
        t.poly_arcs[p].push_back(std::move(arcs));
      }
      for (int e = 0; e < 2; ++e) {
        in.keyword("lut", "bad lut record");
        SASTA_CHECK(in.number<int>("bad lut record") == e) << " bad lut record";
        t.lut_arcs[p][e] = read_lut(in);
      }
    }
    lib.add(std::move(t));
  }
  in.keyword("end", "missing end marker");
  return lib;
}

CharLibrary load_charlibrary_file(const std::string& path) {
  std::ifstream is(path);
  SASTA_CHECK(is.good()) << " cannot open " << path;
  return load_charlibrary(is);
}

std::string default_cache_dir() {
  if (const char* env = std::getenv("SASTA_CACHE_DIR")) return env;
  return ".sasta-charcache";
}

CharLibrary load_or_characterize(const cell::Library& lib,
                                 const tech::Technology& tech,
                                 const CharacterizeOptions& options,
                                 const std::string& cache_dir) {
  // Fingerprint of everything the characterization depends on: cell names,
  // functions and network shapes, plus the technology parameters.  Any
  // change invalidates the cache file name.
  std::size_t fp = 1469598103934665603ull;
  auto mix = [&fp](std::size_t v) {
    fp ^= v;
    fp *= 1099511628211ull;
  };
  auto mix_double = [&mix](double d) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    mix(static_cast<std::size_t>(bits));
  };
  auto mix_string = [&mix](const std::string& s) {
    for (char ch : s) mix(static_cast<std::size_t>(ch));
  };
  for (const auto& c : lib.cells()) {
    mix_string(c.name());
    mix(static_cast<std::size_t>(c.num_inputs()));
    mix(static_cast<std::size_t>(c.function().bits()));
    mix_string(c.pdn().to_string(c.pin_names()));
    mix(static_cast<std::size_t>(c.has_output_inverter()));
  }
  for (const spice::MosParams* p : {&tech.nmos, &tech.pmos}) {
    mix_double(p->vth0);
    mix_double(p->kp);
    mix_double(p->alpha);
    mix_double(p->vdsat_gamma);
    mix_double(p->lambda);
    mix_double(p->tc_vth);
    mix_double(p->tc_mob);
    mix_double(p->cg_per_um);
    mix_double(p->cj_per_um);
  }
  mix_double(tech.vdd);
  mix_double(tech.wn_unit_um);
  mix_double(tech.beta_p);
  mix_double(tech.lmin_um);
  mix_double(tech.default_input_slew);
  mix_double(options.fit_target);
  std::ostringstream name;
  name << "charlib_" << tech.name << "_" << options.profile_name() << "_"
       << std::hex << fp << ".txt";
  const std::filesystem::path path =
      std::filesystem::path(cache_dir) / name.str();

  if (std::filesystem::exists(path)) {
    try {
      CharLibrary cached = load_charlibrary_file(path.string());
      SASTA_LOG(kInfo) << "loaded cached characterization " << path.string();
      return cached;
    } catch (const util::Error& e) {
      SASTA_LOG(kWarning) << "cache read failed (" << e.what()
                          << "); re-characterizing";
    }
  }
  CharLibrary fresh = characterize_library(lib, tech, options);
  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);
  try {
    save_charlibrary_file(fresh, path.string());
  } catch (const util::Error& e) {
    SASTA_LOG(kWarning) << "cache write failed: " << e.what();
  }
  return fresh;
}

}  // namespace sasta::charlib
