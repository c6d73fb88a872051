package repro.tpcds

import java.nio.file.{Files, Path}
import java.util.concurrent.ExecutionException
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.DataFrame
import repro.SparkSpec

class TpcdsLiteSpec extends SparkSpec {
  private val sf = 0.002

  /** Total on-disk bytes of materialized table `name`, 0 if it is absent. */
  private def tableBytes(baseDir: Path, name: String): Long = {
    val dir = TpcdsLite.tableDir(baseDir, sf, name)
    if (!Files.exists(dir)) 0L
    else {
      val stream = Files.walk(dir)
      try stream.filter(Files.isRegularFile(_)).mapToLong(Files.size(_)).sum()
      finally stream.close()
    }
  }

  test("all eight tables generate") {
    val ts = TpcdsLite.tables(spark, sf)
    assert(ts.keySet == TpcdsLite.tableNames.toSet)
  }

  test("fact-table cardinalities scale with sf") {
    assert(TpcdsLite.storeSales(spark, sf).count() == (2880000 * sf).toLong)
    assert(TpcdsLite.webSales(spark, sf).count() == (720000 * sf).toLong)
  }

  test("date_dim is a fixed-size calendar starting 1992-01-01") {
    val dd = TpcdsLite.dateDim(spark).collect()
    assert(dd.length == TpcdsLite.NDateDim)
    val first = dd.minBy(_.getAs[Long]("d_date_sk"))
    assert(first.getAs[String]("d_date") == "1992-01-01")
    assert(first.getAs[Int]("d_year") == 1992)
  }

  test("dimension keys are dense from 1") {
    val items = TpcdsLite.item(spark, sf).select("i_item_sk").collect().map(_.getLong(0)).sorted
    assert(items.head == 1L && items.last == items.length)
  }

  test("fact foreign keys fall within dimension ranges") {
    val nItems = TpcdsLite.item(spark, sf).count()
    val range = TpcdsLite.storeSales(spark, sf)
      .selectExpr("min(ss_item_sk) AS lo", "max(ss_item_sk) AS hi").head()
    assert(range.getAs[Long]("lo") >= 1L)
    assert(range.getAs[Long]("hi") <= nItems)
  }

  test("generation is deterministic") {
    val a = TpcdsLite.storeSales(spark, sf).selectExpr("sum(ss_quantity) AS s").head().getLong(0)
    val b = TpcdsLite.storeSales(spark, sf).selectExpr("sum(ss_quantity) AS s").head().getLong(0)
    assert(a == b)
  }

  test("generated rows do not depend on the core count") {
    // The sum the generator gives with its 4 fixed partitions; Spark's
    // default parallelism (local[2] vs local[4]) must not move it.
    val s = TpcdsLite.storeSales(spark, 0.01).selectExpr("sum(ss_item_sk) AS s").head().getLong(0)
    assert(s == 2611999L)
  }

  test("monetary columns have exactly two decimals") {
    val bad = TpcdsLite.storeSales(spark, sf)
      .selectExpr("sum(CASE WHEN ss_sales_price != round(ss_sales_price, 2) THEN 1 ELSE 0 END) AS bad")
      .head().getLong(0)
    assert(bad == 0L)
  }

  test("materialize writes parquet once and registers views") {
    val dir = Files.createTempDirectory("tpcds")
    val ts  = TpcdsLite.materialize(spark, sf, dir)
    assert(ts("store_sales").count() == (2880000 * sf).toLong)
    assert(spark.sql("SELECT COUNT(*) AS c FROM store_sales").head().getLong(0) == (2880000 * sf).toLong)
    // A second call must reuse the files: rewriting the table would drop
    // this marker (Spark's readers skip names starting with `_`).
    val marker = Files.createFile(TpcdsLite.tableDir(dir, sf, "store_sales").resolve("_reused"))
    TpcdsLite.materialize(spark, sf, dir)
    assert(Files.exists(marker), "the second materialize rewrote store_sales")
    assert(spark.sql("SELECT COUNT(*) AS c FROM store_sales").head().getLong(0) == (2880000 * sf).toLong)
  }

  test("materialize ignores a copy written by an older generator") {
    // A store_sales of 3 rows at the unversioned path older builds wrote to.
    val dir   = Files.createTempDirectory("tpcds-stale")
    val stale = dir.resolve(s"sf$sf").resolve("store_sales")
    TpcdsLite.storeSales(spark, sf).limit(3).write.parquet(stale.toString)
    assert(Files.exists(stale.resolve("_SUCCESS")))
    val ts = TpcdsLite.materialize(spark, sf, dir)
    def checksum(df: DataFrame) = df.selectExpr("count(*)", "sum(ss_item_sk)", "sum(ss_quantity)").head()
    assert(checksum(ts("store_sales")) == checksum(TpcdsLite.storeSales(spark, sf)))
  }

  test("tableBytes reports positive sizes for materialized tables") {
    val dir = Files.createTempDirectory("tpcds2")
    TpcdsLite.materialize(spark, sf, dir)
    TpcdsLite.tableNames.foreach { t =>
      assert(tableBytes(dir, t) > 0L, s"table $t has no bytes")
    }
  }

  test("fact tables are written as multiple files for scan parallelism") {
    val dir = Files.createTempDirectory("tpcds3")
    TpcdsLite.materialize(spark, sf, dir)
    val parts = Files.list(TpcdsLite.tableDir(dir, sf, "store_sales"))
      .filter(p => p.getFileName.toString.endsWith(".parquet")).count()
    assert(parts >= 2, s"expected multiple parquet files, got $parts")
  }

  private val JobUuid = "[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}".r

  private def fileNames(dir: Path): Set[String] = {
    val stream = Files.list(dir)
    try stream.iterator.asScala.map(_.getFileName.toString).toSet finally stream.close()
  }

  test("materialize writes the files, sizes, modes and rows of sequential writes through the stock file system") {
    val dir = Files.createTempDirectory("tpcds-eq")
    val ref = Files.createTempDirectory("tpcds-ref")
    TpcdsLite.materialize(spark, sf, dir)
    val ts = TpcdsLite.tables(spark, sf)
    TpcdsLite.tableNames.foreach { name =>
      ts(name).repartition(TpcdsLite.fileCount(name, sf)).write.parquet(ref.resolve(name).toString)
    }
    TpcdsLite.tableNames.foreach { name =>
      val (a, b) = (TpcdsLite.tableDir(dir, sf, name), ref.resolve(name))
      def listing(d: Path) = fileNames(d).map { f =>
        JobUuid.replaceAllIn(f, "UUID") -> (Files.size(d.resolve(f)), Files.getPosixFilePermissions(d.resolve(f)))
      }.toMap
      val (la, lb) = (listing(a), listing(b))
      assert(la == lb, s"table $name")
      assert(Files.getPosixFilePermissions(a) == Files.getPosixFilePermissions(b), s"table $name directory")
      assert(la.keySet.count(_.endsWith(".parquet")) == TpcdsLite.fileCount(name, sf), s"table $name")
      assert(la.contains("_SUCCESS") && la.contains("._SUCCESS.crc"), s"table $name")
      assert(spark.table(name).schema == spark.read.parquet(a.toString).schema, s"view $name")
      fileNames(a).filter(_.endsWith(".parquet")).foreach { f =>
        val twin = fileNames(b).find(g => JobUuid.replaceAllIn(g, "") == JobUuid.replaceAllIn(f, "")).get
        def rows(p: Path) = spark.read.parquet(p.toString).collect().toSeq
        assert(rows(a.resolve(f)) == rows(b.resolve(twin)), s"$name/$f")
      }
    }
  }

  test("materialize rewrites only the tables without _SUCCESS") {
    val dir = Files.createTempDirectory("tpcds-partial")
    TpcdsLite.materialize(spark, sf, dir)
    def names() = TpcdsLite.tableNames.map(t => t -> fileNames(TpcdsLite.tableDir(dir, sf, t))).toMap
    val before = names()
    Files.delete(TpcdsLite.tableDir(dir, sf, "item").resolve("_SUCCESS"))
    val ts    = TpcdsLite.materialize(spark, sf, dir)
    val after = names()
    TpcdsLite.tableNames.filterNot(_ == "item").foreach(t => assert(after(t) == before(t), s"table $t was rewritten"))
    assert(after("item") != before("item") && after("item").contains("_SUCCESS"))
    assert(ts("item").count() == TpcdsLite.item(spark, sf).count())
  }

  test("a failed write rethrows the write's own error and leaves no pool thread alive") {
    // A regular file where the table directories' parent should be. (One at
    // a table's own directory is not an error: the overwrite deletes it.)
    val dir = Files.createTempDirectory("tpcds-fail")
    val blocker = TpcdsLite.tableDir(dir, sf, "item").getParent
    Files.createDirectories(blocker.getParent)
    Files.write(blocker, Array[Byte](1))
    val direct = intercept[Exception](TpcdsLite.item(spark, sf).write.parquet(blocker.resolve("item").toString))
    val e      = intercept[Exception](TpcdsLite.materialize(spark, sf, dir))
    assert(!e.isInstanceOf[ExecutionException])
    assert(e.getClass == direct.getClass, e.toString)
    val workers = Thread.getAllStackTraces.keySet.asScala.filter(_.getName == "tpcds-materialize")
    val deadline = System.currentTimeMillis() + 10000
    workers.foreach(t => t.join(math.max(1L, deadline - System.currentTimeMillis())))
    assert(workers.forall(!_.isAlive))
  }
}
