"""DuckDB oracle sanity checks on the generated company and security tables.

Each check runs the same aggregate in Spark and in DuckDB and asserts the
rows match, so a broken oracle (or a broken Spark-to-pandas hand-off)
shows up before the oracle is trusted elsewhere.
"""
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent


class TestOracleOnGeneratedRecords:
    def test_source_aggregate(self, companies_df):
        got = companies_df.groupBy("source_id").agg(
            F.count("*").alias("cnt"),
            F.countDistinct("gt_group").alias("n_groups"),
            F.sum(F.col("easy_group").cast("long")).alias("n_easy"),
        )
        assert_equivalent(
            got,
            """SELECT source_id, COUNT(*) AS cnt,
                      COUNT(DISTINCT gt_group) AS n_groups,
                      SUM(CAST(easy_group AS BIGINT)) AS n_easy
               FROM c GROUP BY source_id""",
            c=companies_df,
        )

    def test_securities_company_join(self, companies_df, securities_df):
        c = companies_df.select("record_id", F.col("source_id").alias("c_src"))
        got = (securities_df.join(
                   c, securities_df.company_record_id == c.record_id)
               .groupBy("c_src", "sec_type")
               .agg(F.count("*").alias("cnt")))
        assert_equivalent(
            got,
            """SELECT c.source_id AS c_src, s.sec_type, COUNT(*) AS cnt
               FROM s JOIN c ON s.company_record_id = c.record_id
               GROUP BY c.source_id, s.sec_type""",
            s=securities_df, c=companies_df,
        )
