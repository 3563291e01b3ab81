module eventsys/bench

go 1.24

require eventsys v0.0.0

replace eventsys => ../
