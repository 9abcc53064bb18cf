#include "service/wfq.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ca3dmm::service {

namespace {

/// a's finish tag is smaller than b's by more than rounding. Tags of equal
/// value reached along different tenants' chains (16 items of cost c at
/// weight 1 against 64 of cost c at weight 4) differ in their last bits,
/// and such a tie must go to the lower tenant id, not to the rounding.
bool tag_less(double a, double b) {
  return a < b - 1e-9 * std::max(std::abs(a), std::abs(b));
}

}  // namespace

void WfqScheduler::add_tenant(int tenant, double weight, int priority_class) {
  CA_REQUIRE(weight > 0, "WFQ tenant %d needs weight > 0, got %g", tenant,
             weight);
  CA_REQUIRE(!tenants_.count(tenant), "WFQ tenant %d registered twice",
             tenant);
  Tenant t;
  t.weight = weight;
  t.priority_class = priority_class;
  tenants_[tenant] = t;
}

void WfqScheduler::enqueue(int tenant, i64 id, double cost, double now_s) {
  auto it = tenants_.find(tenant);
  CA_REQUIRE(it != tenants_.end(), "WFQ enqueue for unknown tenant %d",
             tenant);
  CA_REQUIRE(cost >= 0, "WFQ cost must be >= 0, got %g", cost);
  Tenant& t = it->second;
  Item item;
  item.id = id;
  item.cost = cost;
  item.start_tag = std::max(vtime_, t.last_finish);
  item.finish_tag = item.start_tag + cost / t.weight;
  item.enqueued_s = now_s;
  t.last_finish = item.finish_tag;
  t.q.push_back(item);
  ++queued_;
}

std::optional<WfqScheduler::Pick> WfqScheduler::pick(double now_s) {
  const Tenant* best_t = nullptr;
  int best_tenant = 0;
  int best_class = 0;
  for (const auto& [tid, t] : tenants_) {
    if (t.q.empty()) continue;
    const Item& head = t.q.front();
    int cls = t.priority_class;
    if (starvation_bound_s_ > 0 &&
        now_s - head.enqueued_s > starvation_bound_s_)
      cls = 0;  // aged past the bound: competes with the top class
    // Lexicographic (class, finish tag, tenant id): deterministic on every
    // rank regardless of map sizes or float ties. Tenants are visited in
    // ascending id, so a tie keeps the earlier (lower) one.
    if (!best_t || cls < best_class ||
        (cls == best_class &&
         tag_less(head.finish_tag, best_t->q.front().finish_tag))) {
      best_t = &t;
      best_tenant = tid;
      best_class = cls;
    }
  }
  if (!best_t) return std::nullopt;
  Tenant& t = tenants_[best_tenant];
  const Item item = t.q.front();
  t.q.pop_front();
  --queued_;
  vtime_ = std::max(vtime_, item.start_tag);
  Pick p;
  p.tenant = best_tenant;
  p.id = item.id;
  p.cost = item.cost;
  p.enqueued_s = item.enqueued_s;
  return p;
}

void WfqScheduler::on_served(int tenant, double executed_s) {
  auto it = tenants_.find(tenant);
  CA_REQUIRE(it != tenants_.end(), "WFQ on_served for unknown tenant %d",
             tenant);
  it->second.served_s += executed_s;
}

i64 WfqScheduler::queue_depth(int tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : static_cast<i64>(it->second.q.size());
}

double WfqScheduler::queued_cost(int tenant) const {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return 0;
  double s = 0;
  for (const Item& i : it->second.q) s += i.cost;
  return s;
}

double WfqScheduler::served(int tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.served_s;
}

double WfqScheduler::weight(int tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.weight;
}

double WfqScheduler::total_weight() const {
  double s = 0;
  for (const auto& [tid, t] : tenants_) s += t.weight;
  return s;
}

bool WfqScheduler::all_backlogged() const {
  for (const auto& [tid, t] : tenants_)
    if (t.q.empty()) return false;
  return !tenants_.empty();
}

}  // namespace ca3dmm::service
