package repro.tpcds

/** The reproduction's 103-query workload — the stand-in for the paper's 103
  * TPC-DS queries (99 + variants), see DESIGN.md.
  *
  * 26 templates × 4 parameter variants (last variant dropped to land on
  * exactly 103, matching the paper's count). Every query is a single SQL
  * string executed identically on Spark SQL and on the DuckDB oracle:
  *
  *   - numeric columns are referenced through explicit `CAST` so DuckDB's
  *     VARCHAR-typed oracle tables compare numerically;
  *   - monetary aggregations go through `DECIMAL(12,2)` so both engines sum
  *     exactly (no float-order divergence);
  *   - integer sums are cast to `BIGINT` so both JDBC drivers return longs;
  *   - computed group keys are cast to `INT`;
  *   - `LIMIT` is never used (ties would make results nondeterministic).
  */
final case class Query(id: String, templateId: String, sql: String, tables: Seq[String])

object Queries {

  private def dec(c: String)  = s"CAST($c AS DECIMAL(12,2))"
  private def int(c: String)  = s"CAST($c AS INT)"
  private def dbl(c: String)  = s"CAST($c AS DOUBLE)"
  private def big(e: String)  = s"CAST($e AS BIGINT)"

  private val categories = Vector("Books", "Home", "Electronics", "Jewelry")
  private val classes    = Vector("accessories", "classical", "dresses", "fiction")
  private val states     = Vector("CA", "TX", "NY", "WA")
  private val flags      = Vector("Y", "N", "Y", "N")

  /** One template: id plus variant-indexed SQL and the tables it reads. */
  private final case class Template(id: String, tables: Seq[String], sql: Int => String)

  private val templates: Seq[Template] = Seq(
    Template("t01", Seq("store_sales", "item", "date_dim"), v => s"""
      SELECT i_category,
             SUM(${dec("ss_ext_sales_price")}) AS total_sales,
             ${big("COUNT(*)")} AS cnt
      FROM store_sales JOIN item ON ss_item_sk = i_item_sk
                       JOIN date_dim ON ss_sold_date_sk = d_date_sk
      WHERE ${int("d_year")} = ${1992 + v}
      GROUP BY i_category
    """),
    Template("t02", Seq("store_sales"), v => s"""
      SELECT SUM(${dec("ss_sales_price")}) AS total_price,
             ${big(s"SUM(${int("ss_quantity")})")} AS total_qty,
             ${big("COUNT(*)")} AS cnt
      FROM store_sales
      WHERE ${int("ss_quantity")} BETWEEN ${10 + 20 * v} AND ${30 + 20 * v}
    """),
    Template("t03", Seq("store_sales", "item"), v => s"""
      SELECT i_brand, SUM(${dec("ss_net_profit")}) AS profit
      FROM store_sales JOIN item ON ss_item_sk = i_item_sk
      WHERE i_category = '${categories(v)}'
      GROUP BY i_brand
      HAVING COUNT(*) > 3
    """),
    Template("t04", Seq("store_sales", "date_dim", "store"), v => s"""
      SELECT ${int("d_year")} AS yr, s_state, SUM(${dec("ss_ext_sales_price")}) AS sales
      FROM store_sales JOIN date_dim ON ss_sold_date_sk = d_date_sk
                       JOIN store ON ss_store_sk = s_store_sk
      WHERE ${int("d_qoy")} = ${1 + v}
      GROUP BY ${int("d_year")}, s_state
    """),
    Template("t05", Seq("store_sales", "customer", "customer_address"), v => s"""
      SELECT ca_state, SUM(${dec("ss_ext_sales_price")}) AS sales, ${big("COUNT(*)")} AS cnt
      FROM store_sales JOIN customer ON ss_customer_sk = c_customer_sk
                       JOIN customer_address ON c_current_addr_sk = ca_address_sk
      WHERE ${int("ss_quantity")} > ${20 + 10 * v}
      GROUP BY ca_state
    """),
    Template("t06", Seq("store_sales", "web_sales", "item"), v => s"""
      SELECT i_category, SUM(sales) AS total_sales
      FROM (
        SELECT ss_item_sk AS item_sk, ${dec("ss_ext_sales_price")} AS sales FROM store_sales
         WHERE ${int("ss_quantity")} > ${15 + 10 * v}
        UNION ALL
        SELECT ws_item_sk AS item_sk, ${dec("ws_ext_sales_price")} AS sales FROM web_sales
         WHERE ${int("ws_quantity")} > ${15 + 10 * v}
      ) u JOIN item ON item_sk = i_item_sk
      GROUP BY i_category
    """),
    Template("t07", Seq("store_sales", "item"), v => s"""
      SELECT ${big("COUNT(*)")} AS cnt, SUM(${dec("ss_sales_price")}) AS sales
      FROM store_sales
      WHERE ss_item_sk IN (SELECT i_item_sk FROM item
                           WHERE i_class = '${classes(v)}' AND ${dbl("i_current_price")} > 30.0)
    """),
    Template("t08", Seq("customer", "store_sales"), v => s"""
      SELECT ${int("c_birth_year")} AS birth_year, ${big("COUNT(*)")} AS cnt
      FROM customer
      WHERE c_preferred_cust_flag = '${flags(v)}'
        AND EXISTS (SELECT 1 FROM store_sales
                    WHERE ss_customer_sk = c_customer_sk AND ${int("ss_quantity")} > ${70 + 5 * v})
      GROUP BY ${int("c_birth_year")}
    """),
    Template("t09", Seq("store_sales", "item"), v => s"""
      SELECT i_category, i_brand, brand_sales, rnk FROM (
        SELECT i_category, i_brand,
               SUM(${dec("ss_ext_sales_price")}) AS brand_sales,
               ${big(s"RANK() OVER (PARTITION BY i_category ORDER BY SUM(${dec("ss_ext_sales_price")}) DESC)")} AS rnk
        FROM store_sales JOIN item ON ss_item_sk = i_item_sk
        WHERE ${int("ss_quantity")} < ${40 + 15 * v}
        GROUP BY i_category, i_brand
      ) ranked
      WHERE rnk <= 2
    """),
    Template("t10", Seq("store_sales", "customer", "customer_address"), v => s"""
      SELECT ca_state, ${big("COUNT(DISTINCT c_customer_sk)")} AS customers
      FROM store_sales JOIN customer ON ss_customer_sk = c_customer_sk
                       JOIN customer_address ON c_current_addr_sk = ca_address_sk
      WHERE ${dbl("ss_net_profit")} > ${100.0 * v}
      GROUP BY ca_state
    """),
    Template("t11", Seq("store_sales", "promotion"), v => s"""
      SELECT SUM(CASE WHEN p_channel_email = 'Y' THEN ${dec("ss_ext_sales_price")} ELSE ${dec("0")} END) AS email_sales,
             SUM(CASE WHEN p_channel_tv = 'Y' THEN ${dec("ss_ext_sales_price")} ELSE ${dec("0")} END) AS tv_sales
      FROM store_sales JOIN promotion ON ss_promo_sk = p_promo_sk
      WHERE ${int("ss_quantity")} BETWEEN ${5 * v + 1} AND ${5 * v + 60}
    """),
    Template("t12", Seq("store_sales", "date_dim"), v => s"""
      SELECT d_day_name, SUM(${dec("ss_ext_sales_price")}) AS sales
      FROM store_sales JOIN date_dim ON ss_sold_date_sk = d_date_sk
      WHERE d_date BETWEEN '${1992 + v}-01-01' AND '${1992 + v}-06-30'
      GROUP BY d_day_name
    """),
    Template("t13", Seq("web_sales", "date_dim"), v => s"""
      SELECT ${int("d_year")} AS yr, ${int("d_qoy")} AS qtr,
             SUM(${dec("ws_ext_sales_price")}) AS sales, ${big("COUNT(*)")} AS cnt
      FROM web_sales JOIN date_dim ON ws_sold_date_sk = d_date_sk
      WHERE ${int("ws_quantity")} > ${10 + 10 * v}
      GROUP BY ${int("d_year")}, ${int("d_qoy")}
    """),
    Template("t14", Seq("store_sales", "web_sales"), v => s"""
      SELECT ${big("COUNT(*)")} AS cross_items
      FROM (SELECT ss_item_sk AS item_sk FROM store_sales
            WHERE ${int("ss_quantity")} > ${60 + 5 * v} GROUP BY ss_item_sk) s
      JOIN (SELECT ws_item_sk AS item_sk FROM web_sales
            WHERE ${int("ws_quantity")} > ${60 + 5 * v} GROUP BY ws_item_sk) w
        ON s.item_sk = w.item_sk
    """),
    Template("t15", Seq("store_sales", "store"), v => s"""
      SELECT s_state, ${big("COUNT(*)")} AS cnt, SUM(${dec("ss_net_profit")}) AS profit
      FROM store_sales JOIN store ON ss_store_sk = s_store_sk
      WHERE ${int("s_number_employees")} BETWEEN ${50 + 25 * v} AND ${250 + 25 * v}
      GROUP BY s_state
      HAVING SUM(${dec("ss_net_profit")}) > 0
    """),
    Template("t16", Seq("store_sales", "item", "date_dim"), v => s"""
      WITH cat_sales AS (
        SELECT i_category AS category, ${int("d_moy")} AS moy,
               SUM(${dec("ss_ext_sales_price")}) AS sales
        FROM store_sales JOIN item ON ss_item_sk = i_item_sk
                         JOIN date_dim ON ss_sold_date_sk = d_date_sk
        WHERE ${int("d_year")} = ${1993 + v}
        GROUP BY i_category, ${int("d_moy")}
      )
      SELECT category, SUM(sales) AS yearly_sales, ${big("COUNT(*)")} AS active_months
      FROM cat_sales
      GROUP BY category
    """),
    Template("t17", Seq("store_sales", "item"), v => s"""
      SELECT DISTINCT i_category, i_class
      FROM store_sales JOIN item ON ss_item_sk = i_item_sk
      WHERE ${dbl("ss_sales_price")} > ${150.0 + 10 * v}
    """),
    Template("t18", Seq("store_sales", "item", "date_dim"), v => s"""
      SELECT i_class, ${int("d_year")} AS yr, SUM(${dec("ss_wholesale_cost")}) AS cost
      FROM store_sales JOIN item ON ss_item_sk = i_item_sk
                       JOIN date_dim ON ss_sold_date_sk = d_date_sk
      WHERE i_category = '${categories(v)}'
      GROUP BY i_class, ${int("d_year")}
      ORDER BY i_class, yr
    """),
    Template("t19", Seq("store_sales"), v => s"""
      SELECT ${big("COUNT(*)")} AS profitable_cnt,
             SUM(${dec("ss_net_profit")}) AS profit,
             MIN(${dbl("ss_sales_price")}) AS min_price,
             MAX(${dbl("ss_sales_price")}) AS max_price
      FROM store_sales
      WHERE ${dbl("ss_net_profit")} > ${50.0 * (v + 1)}
    """),
    Template("t20", Seq("store_sales", "promotion", "item"), v => s"""
      SELECT p_channel_tv, i_category, SUM(${dec("ss_ext_discount_amt")}) AS discounts
      FROM store_sales JOIN promotion ON ss_promo_sk = p_promo_sk
                       JOIN item ON ss_item_sk = i_item_sk
      WHERE ${int("ss_quantity")} < ${30 + 20 * v}
      GROUP BY p_channel_tv, i_category
    """),
    Template("t21", Seq("store_sales", "date_dim"), v => s"""
      SELECT CAST(CASE WHEN ${int("ss_quantity")} <= 25 THEN 1
                       WHEN ${int("ss_quantity")} <= 50 THEN 2
                       WHEN ${int("ss_quantity")} <= 75 THEN 3
                       ELSE 4 END AS INT) AS qty_bucket,
             ${big("COUNT(*)")} AS cnt, SUM(${dec("ss_ext_sales_price")}) AS sales
      FROM store_sales JOIN date_dim ON ss_sold_date_sk = d_date_sk
      WHERE ${int("d_year")} = ${1994 + v}
      GROUP BY CAST(CASE WHEN ${int("ss_quantity")} <= 25 THEN 1
                         WHEN ${int("ss_quantity")} <= 50 THEN 2
                         WHEN ${int("ss_quantity")} <= 75 THEN 3
                         ELSE 4 END AS INT)
    """),
    Template("t22", Seq("item"), v => s"""
      SELECT i_class, MIN(${dbl("i_current_price")}) AS min_price,
             MAX(${dbl("i_current_price")}) AS max_price, ${big("COUNT(*)")} AS items
      FROM item
      WHERE ${int("i_manufact_id")} BETWEEN ${100 * v + 1} AND ${100 * v + 500}
      GROUP BY i_class
    """),
    Template("t23", Seq("customer"), v => s"""
      SELECT CAST(FLOOR(${int("c_birth_year")} / 10.0) * 10 AS INT) AS decade,
             ${big("COUNT(*)")} AS cnt
      FROM customer
      WHERE c_preferred_cust_flag = '${flags(v)}' AND ${int("c_birth_year")} >= ${1930 + 10 * v}
      GROUP BY CAST(FLOOR(${int("c_birth_year")} / 10.0) * 10 AS INT)
    """),
    Template("t24", Seq("web_sales", "item", "date_dim"), v => s"""
      SELECT i_category, ROUND(AVG(${dec("ws_sales_price")}), 2) AS avg_price,
             SUM(${dec("ws_net_profit")}) AS profit
      FROM web_sales JOIN item ON ws_item_sk = i_item_sk
                     JOIN date_dim ON ws_sold_date_sk = d_date_sk
      WHERE ${int("d_moy")} = ${2 + 3 * v}
      GROUP BY i_category
    """),
    Template("t25", Seq("store_sales", "item"), v => s"""
      SELECT i_category, SUM(${dec("ss_ext_sales_price")}) AS sales
      FROM store_sales JOIN item ON ss_item_sk = i_item_sk
      GROUP BY i_category
      HAVING SUM(${dec("ss_ext_sales_price")}) >
        (SELECT SUM(${dec("ss_ext_sales_price")}) / ${20 - 2 * v} FROM store_sales)
    """),
    Template("t26", Seq("store_sales", "item", "date_dim", "store", "customer"), v => s"""
      SELECT s_state, i_category, ${int("d_year")} AS yr,
             SUM(${dec("ss_ext_sales_price")}) AS sales, ${big("COUNT(*)")} AS cnt
      FROM store_sales JOIN item ON ss_item_sk = i_item_sk
                       JOIN date_dim ON ss_sold_date_sk = d_date_sk
                       JOIN store ON ss_store_sk = s_store_sk
                       JOIN customer ON ss_customer_sk = c_customer_sk
      WHERE ${int("c_birth_year")} > ${1940 + 10 * v} AND ${int("d_qoy")} <= ${v + 1}
      GROUP BY s_state, i_category, ${int("d_year")}
    """),
  )

  /** The full 103-query workload (26 templates × 4 variants, minus one). */
  lazy val all: IndexedSeq[Query] = {
    val qs = for {
      (t, ti) <- templates.zipWithIndex
      v       <- 0 until 4
    } yield Query(f"q${ti * 4 + v + 1}%03d", t.id, t.sql(v).stripMargin.trim, t.tables)
    require(qs.size == 104, s"expected 104 raw queries, got ${qs.size}")
    qs.take(103).toIndexedSeq
  }

  /** One query per template (used by fast unit tests and the oracle suite). */
  lazy val oneVariantPerTemplate: IndexedSeq[Query] =
    all.groupBy(_.templateId).map(_._2.head).toIndexedSeq.sortBy(_.id)

  def byId(id: String): Query =
    all.find(_.id == id).getOrElse(throw new NoSuchElementException(s"no query $id"))
}
