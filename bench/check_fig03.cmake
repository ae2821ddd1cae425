# Runs the Fig. 3 bench and checks that the figure shows its point:
# the user starves inside the generation pause, not while the pacer
# buffer still holds a surplus, and the pause pulls QoE below the
# 0.95 threshold.
#
#   cmake -DFIG03=<bench_fig03_qoe_example> -P check_fig03.cmake
execute_process(COMMAND ${FIG03} RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_fig03_qoe_example exited with ${rc}")
endif()
if(NOT out MATCHES "starved at t=18\\? : yes")
  message(FATAL_ERROR "no starvation inside the pause:\n${out}")
endif()
if(NOT out MATCHES "starved at t=5\\? : no")
  message(FATAL_ERROR "starvation while the buffer holds a surplus:\n${out}")
endif()
if(NOT out MATCHES "QoE \\(area ratio\\) : ([0-9.]+)")
  message(FATAL_ERROR "no QoE line:\n${out}")
endif()
if(NOT CMAKE_MATCH_1 LESS 0.95)
  message(FATAL_ERROR "QoE ${CMAKE_MATCH_1} is not below 0.95:\n${out}")
endif()
