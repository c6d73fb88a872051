package repro.tpcds

import java.nio.file.{Files, Path, Paths}
import java.util.concurrent.{Callable, ExecutionException, Executors, TimeUnit}
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic TPC-DS-style star schema (see DESIGN.md for the substitution
  * rationale): two fact tables (store_sales, web_sales) and six dimensions,
  * with row counts proportioned like TPC-DS and scaled by `sf`.
  *
  * `sf = 0.1` stands in for the paper's SF=100 and `sf = 0.01` for SF=10 —
  * the same 10× data-size ratio. Each generator seeds its columns from a
  * fixed seed of its own, so the rows are deterministic in `sf` and the
  * DuckDB oracle sees identical input.
  *
  * Monetary columns are doubles rounded to 2 decimals; queries aggregate
  * them through `CAST(... AS DECIMAL(12,2))` so Spark and DuckDB produce
  * bit-identical sums. `d_date` is stored as an ISO string so string
  * comparison is equivalent on both engines.
  */
object TpcdsLite {

  /** Fact/dimension base cardinalities at sf = 1 (TPC-DS SF1 proportions). */
  private val NStoreSales = 2_880_000L
  private val NWebSales   =   720_000L
  private val NCustomer   =   100_000L
  private val NAddress    =    50_000L
  private val NItem       =    18_000L
  private val NPromotion  =       300L
  private val NStore      =        12L
  /** date_dim is a fixed-size calendar (7 years of days), as in TPC-DS. */
  val NDateDim = 2557L

  val tableNames: Seq[String] =
    Seq("store_sales", "web_sales", "item", "date_dim", "customer", "customer_address", "store", "promotion")

  private def n(base: Long, sf: Double): Long = math.max(2L, (base * sf).toLong)

  /** Partitions of every generator's id range. `rand(seed)` is seeded per
    * partition, so the rows depend on this count; it is fixed, not Spark's
    * core-dependent default parallelism, so every host generates the same
    * data (4 is the count the recorded numbers were generated with).
    */
  private val GeneratorPartitions = 4

  private def rows(spark: SparkSession, start: Long, end: Long): DataFrame =
    spark.range(start, end, 1, GeneratorPartitions).toDF()

  def storeSales(spark: SparkSession, sf: Double): DataFrame = {
    val seed = 100L
    val nItem = n(NItem, sf); val nCust = n(NCustomer, sf)
    val nStore = n(NStore, sf * 10); val nPromo = n(NPromotion, sf)
    rows(spark, 0, n(NStoreSales, sf)).select(
      (rand(seed)     * NDateDim + 1).cast(LongType)   as "ss_sold_date_sk",
      (rand(seed + 1) * nItem + 1).cast(LongType)      as "ss_item_sk",
      (rand(seed + 2) * nCust + 1).cast(LongType)      as "ss_customer_sk",
      (rand(seed + 3) * nStore + 1).cast(LongType)     as "ss_store_sk",
      (rand(seed + 4) * nPromo + 1).cast(LongType)     as "ss_promo_sk",
      (rand(seed + 5) * 100 + 1).cast(IntegerType)     as "ss_quantity",
      round(rand(seed + 6) * 100 + 1, 2)               as "ss_wholesale_cost",
      round(rand(seed + 7) * 200 + 1, 2)               as "ss_list_price",
      round(rand(seed + 8) * 190 + 1, 2)               as "ss_sales_price",
      round(rand(seed + 9) * 1000, 2)                  as "ss_ext_sales_price",
      round(rand(seed + 10) * 100, 2)                  as "ss_ext_discount_amt",
      round(rand(seed + 11) * 2000 - 500, 2)           as "ss_net_profit",
    )
  }

  def webSales(spark: SparkSession, sf: Double): DataFrame = {
    val seed = 200L
    val nItem = n(NItem, sf); val nCust = n(NCustomer, sf)
    rows(spark, 0, n(NWebSales, sf)).select(
      (rand(seed)     * NDateDim + 1).cast(LongType) as "ws_sold_date_sk",
      (rand(seed + 1) * nItem + 1).cast(LongType)    as "ws_item_sk",
      (rand(seed + 2) * nCust + 1).cast(LongType)    as "ws_bill_customer_sk",
      (rand(seed + 3) * 100 + 1).cast(IntegerType)   as "ws_quantity",
      round(rand(seed + 4) * 190 + 1, 2)             as "ws_sales_price",
      round(rand(seed + 5) * 1200, 2)                as "ws_ext_sales_price",
      round(rand(seed + 6) * 2000 - 500, 2)          as "ws_net_profit",
    )
  }

  def item(spark: SparkSession, sf: Double): DataFrame = {
    val seed = 300L
    import spark.implicits._
    rows(spark, 1, n(NItem, sf) + 1).toDF("i_item_sk").select(
      $"i_item_sk",
      concat(lit("Brand#"), (rand(seed) * 50 + 1).cast(IntegerType))  as "i_brand",
      element_at(array(lit("Books"), lit("Home"), lit("Electronics"), lit("Jewelry"),
                       lit("Music"), lit("Shoes"), lit("Sports"), lit("Women")),
                 (rand(seed + 1) * 8 + 1).cast("int"))                as "i_category",
      element_at(array(lit("accessories"), lit("classical"), lit("dresses"),
                       lit("fiction"), lit("fragrances"), lit("pants")),
                 (rand(seed + 2) * 6 + 1).cast("int"))                as "i_class",
      round(rand(seed + 3) * 100 + 0.5, 2)                            as "i_current_price",
      (rand(seed + 4) * 1000 + 1).cast(IntegerType)                   as "i_manufact_id",
    )
  }

  def dateDim(spark: SparkSession): DataFrame = {
    import spark.implicits._
    val day = date_add(lit("1992-01-01").cast(DateType), ($"d_date_sk" - 1).cast("int"))
    rows(spark, 1, NDateDim + 1).toDF("d_date_sk").select(
      $"d_date_sk",
      date_format(day, "yyyy-MM-dd") as "d_date",
      year(day)                      as "d_year",
      month(day)                     as "d_moy",
      dayofmonth(day)                as "d_dom",
      quarter(day)                   as "d_qoy",
      date_format(day, "EEEE")       as "d_day_name",
    )
  }

  def customer(spark: SparkSession, sf: Double): DataFrame = {
    val seed = 400L
    import spark.implicits._
    val nAddr = n(NAddress, sf)
    rows(spark, 1, n(NCustomer, sf) + 1).toDF("c_customer_sk").select(
      $"c_customer_sk",
      (rand(seed) * nAddr + 1).cast(LongType)          as "c_current_addr_sk",
      (rand(seed + 1) * 75 + 1924).cast(IntegerType)   as "c_birth_year",
      element_at(array(lit("Y"), lit("N")),
                 (rand(seed + 2) * 2 + 1).cast("int")) as "c_preferred_cust_flag",
    )
  }

  def customerAddress(spark: SparkSession, sf: Double): DataFrame = {
    val seed = 500L
    import spark.implicits._
    rows(spark, 1, n(NAddress, sf) + 1).toDF("ca_address_sk").select(
      $"ca_address_sk",
      element_at(array(lit("CA"), lit("TX"), lit("NY"), lit("WA"), lit("GA"),
                       lit("IL"), lit("OH"), lit("MI"), lit("NC"), lit("FL")),
                 (rand(seed) * 10 + 1).cast("int"))    as "ca_state",
      (rand(seed + 1) * 5 - 10).cast(IntegerType)      as "ca_gmt_offset",
    )
  }

  def store(spark: SparkSession, sf: Double): DataFrame = {
    val seed = 600L
    import spark.implicits._
    rows(spark, 1, n(NStore, sf * 10) + 1).toDF("s_store_sk").select(
      $"s_store_sk",
      element_at(array(lit("CA"), lit("TX"), lit("NY"), lit("WA"), lit("GA")),
                 (rand(seed) * 5 + 1).cast("int"))     as "s_state",
      (rand(seed + 1) * 300 + 50).cast(IntegerType)    as "s_number_employees",
    )
  }

  def promotion(spark: SparkSession, sf: Double): DataFrame = {
    val seed = 700L
    import spark.implicits._
    rows(spark, 1, n(NPromotion, sf) + 1).toDF("p_promo_sk").select(
      $"p_promo_sk",
      element_at(array(lit("Y"), lit("N")), (rand(seed) * 2 + 1).cast("int"))     as "p_channel_email",
      element_at(array(lit("Y"), lit("N")), (rand(seed + 1) * 2 + 1).cast("int")) as "p_channel_tv",
    )
  }

  /** All tables at `sf`, generated in memory (no parquet). */
  def tables(spark: SparkSession, sf: Double): Map[String, DataFrame] = Map(
    "store_sales"      -> storeSales(spark, sf),
    "web_sales"        -> webSales(spark, sf),
    "item"             -> item(spark, sf),
    "date_dim"         -> dateDim(spark),
    "customer"         -> customer(spark, sf),
    "customer_address" -> customerAddress(spark, sf),
    "store"            -> store(spark, sf),
    "promotion"        -> promotion(spark, sf),
  )

  /** Register in-memory tables as temp views (fast path for unit tests). */
  def registerViews(spark: SparkSession, sf: Double): Map[String, DataFrame] = {
    val ts = tables(spark, sf)
    ts.foreach { case (name, df) => df.createOrReplaceTempView(name) }
    ts
  }

  /** Version of the generated rows: bump it whenever a generator changes
    * the rows it writes, so a materialized copy from an older generator is
    * never reused. 2: generators use fixed partitions.
    */
  val DataVersion = 2

  /** Where [[materialize]] writes table `name` at `sf` under `baseDir`. */
  def tableDir(baseDir: Path, sf: Double, name: String): Path =
    baseDir.resolve(s"data-v$DataVersion").resolve(f"sf$sf%s").resolve(name)

  /** Parquet files table `name` is written as at `sf`. Parquet row groups
    * don't split below file granularity, so scan-stage parallelism equals
    * the file count, and fact-table block counts scale with data size like a
    * real data lake: at "SF100" (sf=0.1) store_sales spans 192 blocks (= the
    * 48×4-slot ceiling, as the paper's SF=100 scans exceed it), at "SF10" ~19.
    */
  def fileCount(name: String, sf: Double): Int = {
    def scaled(base: Int): Int = math.max(4, math.min(base, (base * sf * 10).round.toInt))
    name match {
      case "store_sales"           => scaled(192)
      case "web_sales"             => scaled(48)
      case "customer" | "date_dim" => 4
      case _                       => 1
    }
  }

  /** Materialize all tables at `sf` as parquet under `baseDir` (idempotent)
    * and register them as temp views over the files. File-backed relations
    * give the featurizer real input-byte statistics and the profiler real
    * scan stages, like the paper's data-lake tables.
    *
    * Tables without a `_SUCCESS` marker are (re)written concurrently, one
    * Spark job each, through [[PosixLocalFileSystem]]. Once all writes have
    * ended, the error of the first failed table (in `tableNames` order) is
    * rethrown as raised. The views carry the generator's schema, so
    * registering them reads no parquet footer.
    */
  def materialize(spark: SparkSession, sf: Double, baseDir: Path): Map[String, DataFrame] = {
    Files.createDirectories(baseDir)
    val ts      = tables(spark, sf)
    val pending = tableNames.filterNot(name => Files.exists(tableDir(baseDir, sf, name).resolve("_SUCCESS")))
    def write(name: String): Unit =
      ts(name).repartition(fileCount(name, sf)).write.mode("overwrite")
        .option("fs.file.impl", classOf[PosixLocalFileSystem].getName)
        .option("fs.file.impl.disable.cache", "true")
        .parquet(tableDir(baseDir, sf, name).toString)
    // A dedicated pool: these threads block on Spark jobs, so they must not
    // occupy the common ForkJoinPool that repro.Par computes on.
    if (pending.nonEmpty) {
      val pool = Executors.newFixedThreadPool(pending.size, (r: Runnable) => new Thread(r, "tpcds-materialize"))
      try {
        val tasks = pending.map(name => (() => { SparkSession.setActiveSession(spark); write(name) }): Callable[Unit])
        pool.invokeAll(tasks.asJava).asScala.foreach { f =>
          try f.get() catch { case e: ExecutionException => throw e.getCause }
        }
      } finally {
        pool.shutdown()
        pool.awaitTermination(Long.MaxValue, TimeUnit.NANOSECONDS)
      }
    }
    tableNames.map { name =>
      val df = spark.read.schema(ts(name).schema).parquet(tableDir(baseDir, sf, name).toString)
      df.createOrReplaceTempView(name)
      name -> df
    }.toMap
  }

  /** Default parquet location shared by tests/benches/jobs. */
  def defaultBaseDir: Path = Paths.get(sys.env.getOrElse("REPRO_DATA_DIR", "target/tpcds-lite"))
}
