#include "tpch/dbgen.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"

namespace wake {
namespace tpch {

namespace {

// --- fixed vocabulary (subset of the spec's lists; every value a query
// probes for is present) ---

const char* kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                          "MIDDLE EAST"};

struct NationDef {
  const char* name;
  int region;
};
const NationDef kNations[25] = {
    {"ALGERIA", 0},      {"ARGENTINA", 1}, {"BRAZIL", 1},
    {"CANADA", 1},       {"EGYPT", 4},     {"ETHIOPIA", 0},
    {"FRANCE", 3},       {"GERMANY", 3},   {"INDIA", 2},
    {"INDONESIA", 2},    {"IRAN", 4},      {"IRAQ", 4},
    {"JAPAN", 2},        {"JORDAN", 4},    {"KENYA", 0},
    {"MOROCCO", 0},      {"MOZAMBIQUE", 0},{"PERU", 1},
    {"CHINA", 2},        {"ROMANIA", 3},   {"SAUDI ARABIA", 4},
    {"VIETNAM", 2},      {"RUSSIA", 3},    {"UNITED KINGDOM", 3},
    {"UNITED STATES", 1}};

const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY",
                           "HOUSEHOLD"};

const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                             "4-NOT SPECIFIED", "5-LOW"};

// "AIR REG" instead of the spec's "REG AIR" so Q19's literal IN-list
// ('AIR', 'AIR REG') matches generated data; self-consistent substitution.
const char* kShipModes[] = {"AIR REG", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL",
                            "FOB"};

const char* kShipInstructs[] = {"DELIVER IN PERSON", "COLLECT COD", "NONE",
                                "TAKE BACK RETURN"};

const char* kTypeSyllable1[] = {"STANDARD", "SMALL", "MEDIUM",
                                "LARGE",    "ECONOMY", "PROMO"};
const char* kTypeSyllable2[] = {"ANODIZED", "BURNISHED", "PLATED", "POLISHED",
                                "BRUSHED"};
const char* kTypeSyllable3[] = {"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"};

const char* kContainerSyllable1[] = {"SM", "MED", "LG", "JUMBO", "WRAP"};
const char* kContainerSyllable2[] = {"CASE", "BOX", "BAG", "JAR",
                                     "PKG",  "PACK", "CAN", "DRUM"};

// Part-name color words (Q9 greps '%green%', Q20 'forest%').
const char* kColors[] = {
    "almond",  "antique",   "aquamarine", "azure",   "beige",    "bisque",
    "black",   "blanched",  "blue",       "blush",   "brown",    "burlywood",
    "chartreuse", "chocolate", "coral",    "cornflower", "cream", "cyan",
    "dark",    "deep",      "dim",        "dodger",  "drab",     "firebrick",
    "forest",  "frosted",   "gainsboro",  "ghost",   "goldenrod","green",
    "grey",    "honeydew",  "hot",        "indian",  "ivory",    "khaki",
    "lace",    "lavender",  "lawn",       "lemon",   "light",    "lime",
    "linen",   "magenta",   "maroon",     "medium",  "metallic", "midnight",
    "mint",    "misty",     "moccasin",   "navajo",  "navy",     "olive",
    "orange",  "orchid",    "pale",       "papaya",  "peach",    "peru",
    "pink",    "plum",      "powder",     "puff",    "purple",   "red",
    "rose",    "rosy",      "royal",      "saddle",  "salmon",   "sandy",
    "seashell","sienna",    "sky",        "slate",   "smoke",    "snow",
    "spring",  "steel",     "tan",        "thistle", "tomato",   "turquoise",
    "violet",  "wheat",     "white",      "yellow"};

// Generic comment filler words.
const char* kWords[] = {
    "carefully", "quickly",  "furiously", "slowly",   "blithely", "ideas",
    "requests",  "deposits", "accounts",  "packages", "theodolites",
    "instructions", "pinto",  "beans",    "foxes",    "dependencies",
    "platelets", "asymptotes", "somas",   "sauternes", "warhorses",
    "sleep",     "wake",     "nag",       "haggle",   "cajole",   "detect",
    "integrate", "engage",   "bold",      "final",    "express",  "regular",
    "even",      "special",  "silent",    "unusual",  "ironic",   "pending",
    "sly",       "busy",     "close",     "dogged",   "daring",   "brave"};

template <size_t N>
const char* Pick(Rng& rng, const char* (&pool)[N]) {
  return pool[rng.Next() % N];
}

std::string Comment(Rng& rng, int min_words, int max_words) {
  int n = static_cast<int>(rng.UniformInt(min_words, max_words));
  std::string out;
  for (int i = 0; i < n; ++i) {
    if (i > 0) out += ' ';
    out += Pick(rng, kWords);
  }
  return out;
}

// Consumes exactly the draws of Comment without building the string, so
// projected generation keeps the random stream (and every other column)
// bit-identical to a full generation.
void SkipComment(Rng& rng, int min_words, int max_words) {
  int n = static_cast<int>(rng.UniformInt(min_words, max_words));
  for (int i = 0; i < n; ++i) rng.Next();
}

std::string Phone(Rng& rng, int64_t nationkey) {
  // Country code 10 + nationkey, so SUBSTRING(phone, 1, 2) gives the codes
  // Q22 filters on ('13','31','23','29','30','18','17').
  return StrFormat("%02d-%03d-%03d-%04d", static_cast<int>(10 + nationkey),
                   static_cast<int>(rng.UniformInt(100, 999)),
                   static_cast<int>(rng.UniformInt(100, 999)),
                   static_cast<int>(rng.UniformInt(1000, 9999)));
}

double Money(Rng& rng, int64_t cents_lo, int64_t cents_hi) {
  return static_cast<double>(rng.UniformInt(cents_lo, cents_hi)) / 100.0;
}

int64_t kStartDate() { return DateToDays(1992, 1, 1); }
int64_t kEndDate() { return DateToDays(1998, 8, 2); }

size_t ScaleCount(double sf, double base, size_t minimum = 1) {
  return std::max<size_t>(minimum,
                          static_cast<size_t>(std::llround(sf * base)));
}

// Spec ps_suppkey formula: spreads a part's four suppliers over the supplier
// space so partsupp joins are uniform.
int64_t PartSupplier(int64_t partkey, int64_t i, int64_t num_suppliers) {
  int64_t s = num_suppliers;
  return (partkey + i * (s / 4 + (partkey - 1) / s)) % s + 1;
}

Schema MakeSchema(std::vector<Field> fields, std::vector<std::string> pk,
                  std::vector<std::string> cluster) {
  Schema schema(std::move(fields));
  schema.set_primary_key(std::move(pk));
  schema.set_clustering_key(std::move(cluster));
  return schema;
}

// Projected generation: maps full-schema field indices to output columns.
// `columns == nullptr` keeps everything; a pointer to an empty list keeps
// nothing (used for the discarded half of the orders/lineitem pair). The
// random draws of skipped columns are still consumed by the builders, so
// kept columns are bit-identical to a full generation.
class Projection {
 public:
  Projection(const Schema& full, const std::vector<std::string>* columns)
      : schema_(columns == nullptr ? full : full.Select(*columns)),
        frame_(schema_),
        slot_(full.ProjectionSlots(schema_)) {}

  bool want(size_t field) const { return slot_[field] != Schema::npos; }
  Column* col(size_t field) { return frame_.mutable_column(slot_[field]); }
  DataFrame& frame() { return frame_; }

 private:
  Schema schema_;
  DataFrame frame_;
  std::vector<size_t> slot_;
};

PartitionedTable BuildRegion(const DbgenConfig& config,
                             const std::vector<std::string>* columns =
                                 nullptr) {
  Rng rng(config.seed ^ 0x7265ULL);
  Schema schema = MakeSchema({{"r_regionkey", ValueType::kInt64},
                              {"r_name", ValueType::kString},
                              {"r_comment", ValueType::kString}},
                             {"r_regionkey"}, {"r_regionkey"});
  Projection p(schema, columns);
  for (int64_t i = 0; i < 5; ++i) {
    if (p.want(0)) p.col(0)->AppendInt(i);
    if (p.want(1)) p.col(1)->AppendString(kRegions[i]);
    if (p.want(2)) {
      p.col(2)->AppendString(Comment(rng, 3, 10));
    } else {
      SkipComment(rng, 3, 10);
    }
  }
  return PartitionedTable::FromDataFrame("region", p.frame(), 1);
}

PartitionedTable BuildNation(const DbgenConfig& config,
                             const std::vector<std::string>* columns =
                                 nullptr) {
  Rng rng(config.seed ^ 0x6e61ULL);
  Schema schema = MakeSchema({{"n_nationkey", ValueType::kInt64},
                              {"n_name", ValueType::kString},
                              {"n_regionkey", ValueType::kInt64},
                              {"n_comment", ValueType::kString}},
                             {"n_nationkey"}, {"n_nationkey"});
  Projection p(schema, columns);
  for (int64_t i = 0; i < 25; ++i) {
    if (p.want(0)) p.col(0)->AppendInt(i);
    if (p.want(1)) p.col(1)->AppendString(kNations[i].name);
    if (p.want(2)) p.col(2)->AppendInt(kNations[i].region);
    if (p.want(3)) {
      p.col(3)->AppendString(Comment(rng, 3, 10));
    } else {
      SkipComment(rng, 3, 10);
    }
  }
  return PartitionedTable::FromDataFrame("nation", p.frame(), 1);
}

PartitionedTable BuildSupplier(const DbgenConfig& config,
                               const std::vector<std::string>* columns =
                                   nullptr) {
  Rng rng(config.seed ^ 0x7375ULL);
  size_t n = ScaleCount(config.scale_factor, 10000.0, 20);
  Schema schema = MakeSchema({{"s_suppkey", ValueType::kInt64},
                              {"s_name", ValueType::kString},
                              {"s_address", ValueType::kString},
                              {"s_nationkey", ValueType::kInt64},
                              {"s_phone", ValueType::kString},
                              {"s_acctbal", ValueType::kFloat64},
                              {"s_comment", ValueType::kString}},
                             {"s_suppkey"}, {"s_suppkey"});
  Projection p(schema, columns);
  for (size_t i = 1; i <= n; ++i) {
    int64_t nationkey = rng.UniformInt(0, 24);
    if (p.want(0)) p.col(0)->AppendInt(static_cast<int64_t>(i));
    if (p.want(1)) p.col(1)->AppendString(StrFormat("Supplier#%09zu", i));
    if (p.want(2)) {
      p.col(2)->AppendString(Comment(rng, 2, 4));
    } else {
      SkipComment(rng, 2, 4);
    }
    if (p.want(3)) p.col(3)->AppendInt(nationkey);
    std::string phone = Phone(rng, nationkey);  // fixed 3 draws
    if (p.want(4)) p.col(4)->AppendString(std::move(phone));
    double acctbal = Money(rng, -99999, 999999);
    if (p.want(5)) p.col(5)->AppendDouble(acctbal);
    // Per spec, ~5 of 10000 suppliers carry the Customer...Complaints text
    // (Q16 anti-join); use 1/1000 so small SFs still have matches.
    if (p.want(6)) {
      std::string comment = Comment(rng, 5, 12);
      if (rng.UniformInt(0, 999) == 0) {
        comment += " Customer detected Complaints";
      }
      p.col(6)->AppendString(comment);
    } else {
      SkipComment(rng, 5, 12);
      rng.UniformInt(0, 999);
    }
  }
  return PartitionedTable::FromDataFrame(
      "supplier", p.frame(), std::max<size_t>(1, config.partitions / 2));
}

PartitionedTable BuildCustomer(const DbgenConfig& config,
                               const std::vector<std::string>* columns =
                                   nullptr) {
  Rng rng(config.seed ^ 0x6375ULL);
  size_t n = ScaleCount(config.scale_factor, 150000.0, 150);
  Schema schema = MakeSchema({{"c_custkey", ValueType::kInt64},
                              {"c_name", ValueType::kString},
                              {"c_address", ValueType::kString},
                              {"c_nationkey", ValueType::kInt64},
                              {"c_phone", ValueType::kString},
                              {"c_acctbal", ValueType::kFloat64},
                              {"c_mktsegment", ValueType::kString},
                              {"c_comment", ValueType::kString}},
                             {"c_custkey"}, {"c_custkey"});
  Projection p(schema, columns);
  for (size_t i = 1; i <= n; ++i) {
    int64_t nationkey = rng.UniformInt(0, 24);
    if (p.want(0)) p.col(0)->AppendInt(static_cast<int64_t>(i));
    if (p.want(1)) p.col(1)->AppendString(StrFormat("Customer#%09zu", i));
    if (p.want(2)) {
      p.col(2)->AppendString(Comment(rng, 2, 4));
    } else {
      SkipComment(rng, 2, 4);
    }
    if (p.want(3)) p.col(3)->AppendInt(nationkey);
    std::string phone = Phone(rng, nationkey);  // fixed 3 draws
    if (p.want(4)) p.col(4)->AppendString(std::move(phone));
    double acctbal = Money(rng, -99999, 999999);
    if (p.want(5)) p.col(5)->AppendDouble(acctbal);
    const char* segment = Pick(rng, kSegments);
    if (p.want(6)) p.col(6)->AppendString(segment);
    if (p.want(7)) {
      p.col(7)->AppendString(Comment(rng, 4, 10));
    } else {
      SkipComment(rng, 4, 10);
    }
  }
  return PartitionedTable::FromDataFrame(
      "customer", p.frame(), std::max<size_t>(1, config.partitions / 2));
}

PartitionedTable BuildPart(const DbgenConfig& config,
                           const std::vector<std::string>* columns =
                               nullptr) {
  Rng rng(config.seed ^ 0x7061ULL);
  size_t n = ScaleCount(config.scale_factor, 200000.0, 200);
  Schema schema = MakeSchema({{"p_partkey", ValueType::kInt64},
                              {"p_name", ValueType::kString},
                              {"p_mfgr", ValueType::kString},
                              {"p_brand", ValueType::kString},
                              {"p_type", ValueType::kString},
                              {"p_size", ValueType::kInt64},
                              {"p_container", ValueType::kString},
                              {"p_retailprice", ValueType::kFloat64},
                              {"p_comment", ValueType::kString}},
                             {"p_partkey"}, {"p_partkey"});
  Projection p(schema, columns);
  for (size_t i = 1; i <= n; ++i) {
    int64_t partkey = static_cast<int64_t>(i);
    int mfgr = static_cast<int>(rng.UniformInt(1, 5));
    int brand = mfgr * 10 + static_cast<int>(rng.UniformInt(1, 5));
    if (p.want(1)) {
      std::string name;
      for (int w = 0; w < 5; ++w) {
        if (w > 0) name += ' ';
        name += Pick(rng, kColors);
      }
      p.col(1)->AppendString(name);
    } else {
      for (int w = 0; w < 5; ++w) rng.Next();
    }
    const char* t1 = Pick(rng, kTypeSyllable1);
    const char* t2 = Pick(rng, kTypeSyllable2);
    const char* t3 = Pick(rng, kTypeSyllable3);
    const char* c1 = Pick(rng, kContainerSyllable1);
    const char* c2 = Pick(rng, kContainerSyllable2);
    // Spec retail price formula (cents).
    double retail =
        (90000.0 + ((partkey / 10) % 20001) + 100.0 * (partkey % 1000)) /
        100.0;
    if (p.want(0)) p.col(0)->AppendInt(partkey);
    if (p.want(2)) p.col(2)->AppendString(StrFormat("Manufacturer#%d", mfgr));
    if (p.want(3)) p.col(3)->AppendString(StrFormat("Brand#%d", brand));
    if (p.want(4)) {
      p.col(4)->AppendString(std::string(t1) + " " + t2 + " " + t3);
    }
    int64_t size = rng.UniformInt(1, 50);
    if (p.want(5)) p.col(5)->AppendInt(size);
    if (p.want(6)) p.col(6)->AppendString(std::string(c1) + " " + c2);
    if (p.want(7)) p.col(7)->AppendDouble(retail);
    if (p.want(8)) {
      p.col(8)->AppendString(Comment(rng, 2, 6));
    } else {
      SkipComment(rng, 2, 6);
    }
  }
  return PartitionedTable::FromDataFrame(
      "part", p.frame(), std::max<size_t>(1, config.partitions / 2));
}

PartitionedTable BuildPartsupp(const DbgenConfig& config, size_t num_parts,
                               size_t num_suppliers,
                               const std::vector<std::string>* columns =
                                   nullptr) {
  Rng rng(config.seed ^ 0x7073ULL);
  Schema schema = MakeSchema({{"ps_partkey", ValueType::kInt64},
                              {"ps_suppkey", ValueType::kInt64},
                              {"ps_availqty", ValueType::kInt64},
                              {"ps_supplycost", ValueType::kFloat64},
                              {"ps_comment", ValueType::kString}},
                             {"ps_partkey", "ps_suppkey"}, {"ps_partkey"});
  Projection proj(schema, columns);
  for (size_t p = 1; p <= num_parts; ++p) {
    for (int64_t i = 0; i < 4; ++i) {
      if (proj.want(0)) proj.col(0)->AppendInt(static_cast<int64_t>(p));
      if (proj.want(1)) {
        proj.col(1)->AppendInt(PartSupplier(
            static_cast<int64_t>(p), i,
            static_cast<int64_t>(num_suppliers)));
      }
      int64_t availqty = rng.UniformInt(1, 9999);
      if (proj.want(2)) proj.col(2)->AppendInt(availqty);
      double cost = Money(rng, 100, 100000);
      if (proj.want(3)) proj.col(3)->AppendDouble(cost);
      if (proj.want(4)) {
        proj.col(4)->AppendString(Comment(rng, 2, 6));
      } else {
        SkipComment(rng, 2, 6);
      }
    }
  }
  return PartitionedTable::FromDataFrame(
      "partsupp", proj.frame(), std::max<size_t>(1, config.partitions / 2));
}

struct OrdersAndLineitem {
  PartitionedTable orders;
  PartitionedTable lineitem;
};

OrdersAndLineitem BuildOrdersLineitem(
    const DbgenConfig& config, const DataFrame& part, size_t num_customers,
    size_t num_suppliers,
    const std::vector<std::string>* orders_columns = nullptr,
    const std::vector<std::string>* lineitem_columns = nullptr) {
  Rng rng(config.seed ^ 0x6f72ULL);
  size_t num_orders = ScaleCount(config.scale_factor, 1500000.0, 1500);
  size_t num_parts = part.num_rows();
  const auto& retail = part.ColumnByName("p_retailprice").doubles();

  Schema orders_schema = MakeSchema(
      {{"o_orderkey", ValueType::kInt64},
       {"o_custkey", ValueType::kInt64},
       {"o_orderstatus", ValueType::kString},
       {"o_totalprice", ValueType::kFloat64},
       {"o_orderdate", ValueType::kDate},
       {"o_orderpriority", ValueType::kString},
       {"o_clerk", ValueType::kString},
       {"o_shippriority", ValueType::kInt64},
       {"o_comment", ValueType::kString}},
      {"o_orderkey"}, {"o_orderkey"});
  Schema lineitem_schema = MakeSchema(
      {{"l_orderkey", ValueType::kInt64},
       {"l_partkey", ValueType::kInt64},
       {"l_suppkey", ValueType::kInt64},
       {"l_linenumber", ValueType::kInt64},
       {"l_quantity", ValueType::kFloat64},
       {"l_extendedprice", ValueType::kFloat64},
       {"l_discount", ValueType::kFloat64},
       {"l_tax", ValueType::kFloat64},
       {"l_returnflag", ValueType::kString},
       {"l_linestatus", ValueType::kString},
       {"l_shipdate", ValueType::kDate},
       {"l_commitdate", ValueType::kDate},
       {"l_receiptdate", ValueType::kDate},
       {"l_shipinstruct", ValueType::kString},
       {"l_shipmode", ValueType::kString},
       {"l_comment", ValueType::kString}},
      {"l_orderkey", "l_linenumber"}, {"l_orderkey"});

  Projection orders(orders_schema, orders_columns);
  Projection li(lineitem_schema, lineitem_columns);
  size_t num_clerks = std::max<size_t>(
      1, static_cast<size_t>(config.scale_factor * 1000));
  int64_t current = CurrentDate();

  for (size_t ok = 1; ok <= num_orders; ++ok) {
    // Spec: a third of customers have no orders (custkey % 3 == 0 skipped).
    int64_t custkey;
    do {
      custkey = rng.UniformInt(1, static_cast<int64_t>(num_customers));
    } while (custkey % 3 == 0 && num_customers >= 3);

    int64_t orderdate =
        rng.UniformInt(kStartDate(), kEndDate() - 151);
    int lines = static_cast<int>(rng.UniformInt(1, 7));
    double total = 0.0;
    int shipped = 0;
    for (int ln = 1; ln <= lines; ++ln) {
      int64_t partkey = rng.UniformInt(1, static_cast<int64_t>(num_parts));
      int64_t suppkey = PartSupplier(partkey, rng.UniformInt(0, 3),
                                     static_cast<int64_t>(num_suppliers));
      double quantity = static_cast<double>(rng.UniformInt(1, 50));
      double extprice = quantity * retail[static_cast<size_t>(partkey - 1)];
      double discount = static_cast<double>(rng.UniformInt(0, 10)) / 100.0;
      double tax = static_cast<double>(rng.UniformInt(0, 8)) / 100.0;
      int64_t shipdate = orderdate + rng.UniformInt(1, 121);
      int64_t commitdate = orderdate + rng.UniformInt(30, 90);
      int64_t receiptdate = shipdate + rng.UniformInt(1, 30);
      const char* returnflag = "N";
      if (receiptdate <= current) {
        returnflag = rng.UniformInt(0, 1) ? "R" : "A";
      }
      bool is_shipped = shipdate <= current;
      shipped += is_shipped ? 1 : 0;

      if (li.want(0)) li.col(0)->AppendInt(static_cast<int64_t>(ok));
      if (li.want(1)) li.col(1)->AppendInt(partkey);
      if (li.want(2)) li.col(2)->AppendInt(suppkey);
      if (li.want(3)) li.col(3)->AppendInt(ln);
      if (li.want(4)) li.col(4)->AppendDouble(quantity);
      if (li.want(5)) li.col(5)->AppendDouble(extprice);
      if (li.want(6)) li.col(6)->AppendDouble(discount);
      if (li.want(7)) li.col(7)->AppendDouble(tax);
      if (li.want(8)) li.col(8)->AppendString(returnflag);
      if (li.want(9)) li.col(9)->AppendString(is_shipped ? "F" : "O");
      if (li.want(10)) li.col(10)->AppendInt(shipdate);
      if (li.want(11)) li.col(11)->AppendInt(commitdate);
      if (li.want(12)) li.col(12)->AppendInt(receiptdate);
      const char* instruct = Pick(rng, kShipInstructs);
      if (li.want(13)) li.col(13)->AppendString(instruct);
      const char* mode = Pick(rng, kShipModes);
      if (li.want(14)) li.col(14)->AppendString(mode);
      if (li.want(15)) {
        li.col(15)->AppendString(Comment(rng, 2, 6));
      } else {
        SkipComment(rng, 2, 6);
      }
      total += extprice * (1.0 - discount) * (1.0 + tax);
    }
    const char* status = shipped == lines ? "F" : (shipped == 0 ? "O" : "P");
    // ~3% of order comments carry the 'special ... requests' pattern Q13
    // filters out.
    if (orders.want(8)) {
      std::string comment = Comment(rng, 4, 12);
      if (rng.UniformInt(0, 32) == 0) {
        comment += " special handling requests";
      }
      orders.col(8)->AppendString(comment);
    } else {
      SkipComment(rng, 4, 12);
      rng.UniformInt(0, 32);
    }
    if (orders.want(0)) orders.col(0)->AppendInt(static_cast<int64_t>(ok));
    if (orders.want(1)) orders.col(1)->AppendInt(custkey);
    if (orders.want(2)) orders.col(2)->AppendString(status);
    if (orders.want(3)) orders.col(3)->AppendDouble(total);
    if (orders.want(4)) orders.col(4)->AppendInt(orderdate);
    const char* priority = Pick(rng, kPriorities);
    if (orders.want(5)) orders.col(5)->AppendString(priority);
    int clerk = static_cast<int>(
        rng.UniformInt(1, static_cast<int64_t>(num_clerks)));
    if (orders.want(6)) {
      orders.col(6)->AppendString(StrFormat("Clerk#%09d", clerk));
    }
    if (orders.want(7)) orders.col(7)->AppendInt(0);
  }

  OrdersAndLineitem out;
  out.orders = PartitionedTable::FromDataFrame("orders", orders.frame(),
                                               config.partitions);
  out.lineitem = PartitionedTable::FromDataFrame("lineitem", li.frame(),
                                                 config.partitions);
  return out;
}

}  // namespace

int64_t CurrentDate() { return DateToDays(1995, 6, 17); }

Catalog Generate(const DbgenConfig& config) {
  CheckArg(config.scale_factor > 0, "scale factor must be positive");
  CheckArg(config.partitions > 0, "partitions must be positive");
  Catalog catalog;
  catalog.Add(std::make_shared<PartitionedTable>(BuildRegion(config)));
  catalog.Add(std::make_shared<PartitionedTable>(BuildNation(config)));
  auto supplier = BuildSupplier(config);
  auto customer = BuildCustomer(config);
  auto part = BuildPart(config);
  auto partsupp = BuildPartsupp(config, part.total_rows(),
                                supplier.total_rows());
  auto ol = BuildOrdersLineitem(config, part.Materialize(),
                                customer.total_rows(), supplier.total_rows());
  catalog.Add(std::make_shared<PartitionedTable>(std::move(supplier)));
  catalog.Add(std::make_shared<PartitionedTable>(std::move(customer)));
  catalog.Add(std::make_shared<PartitionedTable>(std::move(part)));
  catalog.Add(std::make_shared<PartitionedTable>(std::move(partsupp)));
  catalog.Add(std::make_shared<PartitionedTable>(std::move(ol.orders)));
  catalog.Add(std::make_shared<PartitionedTable>(std::move(ol.lineitem)));
  return catalog;
}

PartitionedTable GenerateTable(const DbgenConfig& config,
                               const std::string& name,
                               const std::vector<std::string>& columns) {
  CheckArg(config.scale_factor > 0, "scale factor must be positive");
  CheckArg(config.partitions > 0, "partitions must be positive");
  // Each table draws from its own seeded stream, so single-table
  // generation reproduces exactly the table Generate() would build.
  const std::vector<std::string>* cols = columns.empty() ? nullptr : &columns;
  if (name == "region") return BuildRegion(config, cols);
  if (name == "nation") return BuildNation(config, cols);
  if (name == "supplier") return BuildSupplier(config, cols);
  if (name == "customer") return BuildCustomer(config, cols);
  if (name == "part") return BuildPart(config, cols);
  if (name == "partsupp") {
    return BuildPartsupp(config, RowsAtScale("part", config.scale_factor),
                         RowsAtScale("supplier", config.scale_factor), cols);
  }
  if (name == "orders" || name == "lineitem") {
    // The pair generates together (lineitems nest inside orders); the
    // discarded half materializes no columns at all.
    static const std::vector<std::string> kNone;
    std::vector<std::string> retail_only = {"p_retailprice"};
    DataFrame part = BuildPart(config, &retail_only).Materialize();
    bool want_orders = name == "orders";
    OrdersAndLineitem ol = BuildOrdersLineitem(
        config, part, RowsAtScale("customer", config.scale_factor),
        RowsAtScale("supplier", config.scale_factor),
        want_orders ? cols : &kNone, want_orders ? &kNone : cols);
    return want_orders ? std::move(ol.orders) : std::move(ol.lineitem);
  }
  throw Error("unknown table " + name);
}

size_t RowsAtScale(const std::string& table, double sf) {
  if (table == "region") return 5;
  if (table == "nation") return 25;
  if (table == "supplier") return ScaleCount(sf, 10000.0, 20);
  if (table == "customer") return ScaleCount(sf, 150000.0, 150);
  if (table == "part") return ScaleCount(sf, 200000.0, 200);
  if (table == "partsupp") return 4 * ScaleCount(sf, 200000.0, 200);
  if (table == "orders") return ScaleCount(sf, 1500000.0, 1500);
  if (table == "lineitem") return 4 * ScaleCount(sf, 1500000.0, 1500);
  throw Error("unknown table " + table);
}

}  // namespace tpch
}  // namespace wake
