# --max-rows must hold whichever side of --mode it is given on: a query
# whose answer exceeds the row guard exits 1 in both flag orders.
#
#   cmake -DCLI=path/to/sparqluo_cli -P tests/cli_max_rows_mode.cmake
if(NOT CLI)
  message(FATAL_ERROR "pass -DCLI=<path to sparqluo_cli>")
endif()

# Every ub:emailAddress triple of LUBM(1): thousands of rows, so a
# 10-row guard must abort the query in every mode.
set(query "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> SELECT ?x ?e WHERE { ?x ub:emailAddress ?e }")
foreach(mode base tt cp full)
  foreach(order "--max-rows;10;--mode;${mode}" "--mode;${mode};--max-rows;10")
    execute_process(COMMAND ${CLI} --lubm 1 ${order} "${query}"
                    INPUT_FILE /dev/null
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err
                    TIMEOUT 120)
    string(REPLACE ";" " " shown "${order}")
    if(NOT rc EQUAL 1)
      message(FATAL_ERROR "sparqluo_cli --lubm 1 ${shown}: exit ${rc}, want 1\n${err}")
    endif()
    message(STATUS "aborted: ${shown}")
  endforeach()
endforeach()
