% 8 languages x 6 concepts from perfbench/synth.py: generate(Shape(8, 6, 2, (3, 5),
% (1, 2), (0, 1), 0.15), seed=2).  Words repeat across languages, so distances tie.
#concepts: c01,c02,c03,c04,c05,c06
wl(L001,[UuuTK,EYI,[odyt,dyt],[OIkb,hOIkb],kGMiE,Yve]).
wl(L002,[UuuTK,iYI,odyt,OIkb,GMiE,[uve,YvY]]).
wl(L003,[UuOZC,EIEI,IdUG,[AIkF,AIakF],kzGZiE,yvu]).
wl(L004,[UuOSC,EII,IdUG,AIkF,kkZiE,[Yvu,Ivu]]).
wl(L005,[UuuTK,EYI,odyt,OIkb,kGMiE,Ype]).
wl(L006,[UuuTK,EYI,odyt,IIkb,kGMiE,Yve]).
wl(L007,[UuOZC,EII,IdUG,AIkF,kGZiE,Yvu]).
wl(L008,[UuOZC,EII,[IdUm,IAdUG],[AIkF,AkF],kGZiE,Yve]).
