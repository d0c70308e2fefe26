#include "sim/device_table.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <list>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace kato::sim {

namespace {
// Grid bounds in overdrive volts.  [-4, +4] covers every reachable bias of
// the shipped PDKs (|vov| <= vdd + vth with margin); outside, the exact
// analytic tail takes over, so the bounds trade memory against how often
// the cold branch runs, not against accuracy.
constexpr double k_vov_lo = -4.0;
constexpr double k_vov_hi = 4.0;
// Knot spacing as a fraction of nvt = n kT/q: the cubic-Hermite relative
// error scales as (h / 2 nvt)^4 / 384, so nvt/8 gives ~1e-8 on veff and
// keeps ids/gm/gds within 1e-4 of analytic after the worst-case
// triode/saturation boundary amplification (see device_table_test).
constexpr double k_step_per_nvt = 1.0 / 8.0;

/// Grid cells for a table at nvt = n kT/q, as a double (no size_t cast yet).
double cell_count(double subthreshold_n, double temp) {
  const double nvt = subthreshold_n * thermal_voltage(temp);
  return std::ceil((k_vov_hi - k_vov_lo) / (nvt * k_step_per_nvt));
}
}  // namespace

double device_table_min_temp(double subthreshold_n) {
  // Closed form of cell_count(n, t) == cap, then nudged up past rounding;
  // cell_count falls as t grows, so every temperature >= the result fits.
  double t = (k_vov_hi - k_vov_lo) /
             (subthreshold_n * thermal_voltage(1.0) * k_step_per_nvt *
              static_cast<double>(k_device_table_max_cells));
  while (cell_count(subthreshold_n, t) >
         static_cast<double>(k_device_table_max_cells))
    t = std::nextafter(t, std::numeric_limits<double>::infinity());
  return t;
}

DeviceTable::DeviceTable(double subthreshold_n, double temp)
    : n_(subthreshold_n), temp_(temp) {
  if (!(subthreshold_n > 0.0) || !(temp > 0.0))
    throw std::invalid_argument(
        "DeviceTable: subthreshold_n and temp must be > 0");
  const double cells_f = cell_count(subthreshold_n, temp);
  if (!(cells_f >= 1.0 &&
        cells_f <= static_cast<double>(k_device_table_max_cells))) {
    std::ostringstream msg;
    msg << "DeviceTable: subthreshold_n " << subthreshold_n << " at temp "
        << temp << " K needs " << cells_f << " cells, outside [1, "
        << k_device_table_max_cells << "]";
    throw std::invalid_argument(msg.str());
  }
  nvt2_ = 2.0 * (subthreshold_n * thermal_voltage(temp));
  lo_ = k_vov_lo;
  hi_ = k_vov_hi;
  const auto cells = static_cast<std::size_t>(cells_f);
  step_ = (hi_ - lo_) / static_cast<double>(cells);
  inv_step_ = 1.0 / step_;
  cells_d_ = static_cast<double>(cells);
  // Knot data (values + step-scaled slopes), then each cell's two Hermite
  // cubics expanded to power basis so the lookup is pure Horner.  For knot
  // pair (y0, y1) with scaled slopes (s0, s1) the coefficients are
  //   a0 = y0, a1 = s0, a2 = 3(y1-y0) - 2 s0 - s1, a3 = 2(y0-y1) + s0 + s1;
  // a0 is the raw knot value, so evaluation at u = 0 reproduces the knot
  // exactly (the same interpolant as the basis form, re-rounded once).
  std::vector<double> kn(4 * (cells + 1));
  for (std::size_t i = 0; i <= cells; ++i) {
    const double vov = lo_ + step_ * static_cast<double>(i);
    const double x = vov / nvt2_;
    const double lg = mos_logistic(x);
    double* k = &kn[4 * i];
    k[0] = nvt2_ * mos_softplus(x);  // veff
    k[1] = lg * step_;               // veff' = logistic, pre-scaled by h
    k[2] = lg;                       // dveff (= logistic)
    k[3] = lg * (1.0 - lg) / nvt2_ * step_;  // logistic', pre-scaled by h
  }
  k_.resize(8 * cells);
  for (std::size_t i = 0; i < cells; ++i) {
    const double* k0 = &kn[4 * i];
    const double* k1 = &kn[4 * (i + 1)];
    double* cf = &k_[8 * i];
    for (int q = 0; q < 2; ++q) {
      const double y0 = k0[2 * q];
      const double s0 = k0[2 * q + 1];
      const double y1 = k1[2 * q];
      const double s1 = k1[2 * q + 1];
      cf[4 * q + 0] = y0;
      cf[4 * q + 1] = s0;
      cf[4 * q + 2] = 3.0 * (y1 - y0) - 2.0 * s0 - s1;
      cf[4 * q + 3] = 2.0 * (y0 - y1) + s0 + s1;
    }
  }
}

void DeviceTable::tail_at(double vov, double& veff, double& dveff) const {
  const double x = vov / nvt2_;
  veff = nvt2_ * mos_softplus(x);
  dveff = mos_logistic(x);
}

namespace {
/// Least-recently-used table cache, most recent first.  A deck touches a
/// handful of keys, so a scan from the front finds a hit at once.
struct TableCache {
  using Key = std::pair<double, double>;
  std::mutex mu;
  std::list<std::pair<Key, std::shared_ptr<const DeviceTable>>> lru;
};

TableCache& table_cache() {
  static TableCache cache;
  return cache;
}
}  // namespace

std::shared_ptr<const DeviceTable> device_table_for(double subthreshold_n,
                                                    double temp, bool* hit,
                                                    bool* evicted) {
  TableCache& c = table_cache();
  const TableCache::Key key{subthreshold_n, temp};
  std::lock_guard<std::mutex> lock(c.mu);
  if (evicted != nullptr) *evicted = false;
  const auto it = std::find_if(c.lru.begin(), c.lru.end(),
                               [&](const auto& e) { return e.first == key; });
  if (hit != nullptr) *hit = it != c.lru.end();
  if (it != c.lru.end()) {
    c.lru.splice(c.lru.begin(), c.lru, it);
    return it->second;
  }
  c.lru.emplace_front(
      key, std::make_shared<const DeviceTable>(subthreshold_n, temp));
  if (c.lru.size() > k_device_table_cache_cap) {
    // Callers still holding the evicted table keep it alive.
    c.lru.pop_back();
    if (evicted != nullptr) *evicted = true;
  }
  return c.lru.front().second;
}

std::size_t device_table_cache_size() {
  TableCache& c = table_cache();
  std::lock_guard<std::mutex> lock(c.mu);
  return c.lru.size();
}

}  // namespace kato::sim
